"""README stays in step with the command line and the package it documents."""

import re
import types
from pathlib import Path

import pytest

from kguniform import SchemeId
from kguniform.harness import SweepConfig
from kguniform.cli import _SETTINGS
from kguniform.cli import main as cli_main
from test_integrators import _FFT_CALLS_PER_STEP, _TRANSFORMS_PER_STEP

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _section(title):
    # the text of one `## title` section, up to the next `## ` heading
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _help(capsys, command):
    with pytest.raises(SystemExit) as info:
        cli_main([command, "--help"])
    assert info.value.code == 0
    return capsys.readouterr().out


def test_readme_config_keys_are_the_cli_config_keys():
    keys = re.search(r"\(keys: ([^)]*)\)", _section("Command line")).group(1)
    assert re.findall(r"`(\w+)`", keys) == list(_SETTINGS)


def _flags(text):
    return set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))


def test_readme_command_line_flags_exist(capsys):
    block = _section("Command line").split("```bash\n", 1)[1].split("```", 1)[0]
    flags = _flags(block)
    assert "--tau-exp" in flags and "--K" in flags
    assert flags <= _flags(_help(capsys, "sweep")) | _flags(_help(capsys, "verify"))


def test_readme_uei2_transform_counts_are_the_pinned_ones():
    # the counts README quotes are those test_fft_calls_per_step pins
    conventions = _section("Conventions (fixed, load-bearing)")
    calls, transforms = re.search(
        r"a UEI2 step makes (\d+) calls for its (\d+) transforms", conventions
    ).groups()
    assert int(calls) == _FFT_CALLS_PER_STEP[SchemeId.UEI2_REAL]
    assert int(transforms) == _TRANSFORMS_PER_STEP[SchemeId.UEI2_REAL]


def test_readme_oracle_block_budget_is_the_modules():
    # the samples per block array that README quotes are the oracle's budget
    from kguniform.integrators import _ORACLE_BLOCK_SAMPLES

    row = _section("What is in the box")
    rule, budget = re.search(
        r"blocks of max\(1, (\d+) // \(16 N\)\) panels.*a budget of (\d+) samples", row
    ).groups()
    assert int(rule) == int(budget) == _ORACLE_BLOCK_SAMPLES


def test_readme_reference_depth_is_the_default():
    depth = re.search(r"`SweepConfig.ref_exponent = (\d+)`", _section("Reference solutions")).group(1)
    assert int(depth) == SweepConfig().ref_exponent


def test_package_exports_each_modules_public_names():
    # the public names that README's `from kguniform import *` brings in are
    # exactly those the four modules list in __all__
    import kguniform
    from kguniform import harness, integrators, model, spectral

    public = {
        name
        for name, value in vars(kguniform).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    modules = (spectral, model, integrators, harness)
    assert public == set().union(*(mod.__all__ for mod in modules))


def test_each_public_name_has_a_caller_outside_the_tests():
    # a name in a module's __all__ occurs in the package, a demo or the
    # benchmark more than twice: somewhere besides its __all__ entry and its
    # definition, so no public name is kept alive by the tests alone
    from kguniform import harness, integrators, model, spectral, verify

    text = "\n".join(
        path.read_text()
        for folder in ("src/kguniform", "demos", "kgbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    )
    uncalled = [
        name
        for mod in (spectral, model, integrators, harness, verify)
        for name in mod.__all__
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= 2
    ]
    assert uncalled == []
