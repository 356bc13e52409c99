"""Span tracer for the kguniform benchmark.

Tracing happens entirely from outside the package: `install` replaces the
names that kguniform's modules bind (a function imported into a module, or
the `scipy.fft` module bound as `_fft`) with thin wrappers that record a
span around each call, and the returned `restore` callable puts every
original object back.  Nothing under `src/` is edited.

A span is (name, start, end, parent, operation id, tag, count):

* `parent` is the span open on the same thread when the call started.  A
  span opened on a thread with nothing open (a sweep worker) is parented to
  the span that adopted such threads, i.e. the enclosing `harness.sweep`.
* the operation id names the benchmark operation the span belongs to (one
  sweep cell, one trajectory, one oracle defect or check).
* `tag` is the scheme for evolve/step spans, `count` the steps they take or
  the rows an FFT call transforms.

Each thread appends its finished spans, as tuples, to its own list (no lock
on the hot path); the lists stay in memory and `Tracer.collect` turns them
into numpy columns when a body ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import math
import os
import sys
import threading
import time

import numpy as np
import scipy.fft

# span names whose `tag` is a scheme and whose `count` is a step count
SCHEDULE_SPANS = ("integrators.evolve", "integrators.step")

# public step functions and the scheme each one advances
STEP_FUNCTIONS = {
    "step_uei1": "uei1",
    "step_uei1_real": "uei1_real",
    "step_uei2_real": "uei2",
    "step_lie_limit": "lie",
    "step_strang_limit": "strang",
    "step_largec_uei1": "largec",
}

# (defining module, function, span name, kind); every binding of the function
# in any kguniform module is wrapped, so calls are seen wherever they come from
TARGETS = (
    [("spectral", f, "spectral.phi", None) for f in ("phi", "phi_moment")]
    + [
        ("spectral", "make_multipliers", "spectral.multipliers", None),
        ("spectral", "sobolev_norm", "spectral.norm", None),
        ("model", "phase_factor", "model.phase", None),
    ]
    + [
        ("model", f, "model.kernels", None)
        for f in (
            "kernel_psi",
            "kernel_vartheta",
            "kernel_omega",
            "kernel_theta",
            "kernel_bundle",
            "oscillatory_block",
        )
    ]
    + [("model", f, "model.state", None) for f in ("to_first_order", "twist", "reconstruct_z")]
    + [("integrators", "evolve", "integrators.evolve", "evolve")]
    + [("integrators", f, "integrators.step", "step") for f in STEP_FUNCTIONS]
    + [
        ("integrators", "reference_solution", "integrators.reference", "reference"),
        ("integrators", "duhamel_oracle_step", "integrators.oracle", None),
        ("harness", "run_sweep", "harness.sweep", "sweep"),
        ("harness", "emit", "harness.emit", None),
        ("harness", "parse_table", "harness.emit", None),
        ("verify", "check_local_defects", "verify.local_defects", None),
        ("verify", "check_omega_quadrature", "verify.omega_quadrature", None),
        ("verify", "check_block_quadrature", "verify.block_quadrature", None),
    ]
)

# modules whose scipy.fft calls count as the spectral layer's transforms; the
# verify suite's own quadrature FFTs are checking work, not solver work
FFT_EXCLUDED_MODULES = ("kguniform.verify",)


class _Thread:
    """Spans one thread has closed, and the spans it has open."""

    __slots__ = ("index", "spans", "stack", "fft_bytes")

    def __init__(self, index):
        self.index = index
        self.spans = []  # (id, name, start, end, parent, op, tag, count, cpu_s)
        self.stack = []  # (id, name, op, tag, count, parent, cpu0, start)
        self.fft_bytes = 0


class Tracer:
    """In-memory span store; one per traced body.  Span ids come from one
    counter, so a parent's id is below its children's."""

    def __init__(self):
        self._ids = itertools.count()
        self._threads = {}
        self._lock = threading.Lock()
        # (id, op) of the span that adopts spans opened on a thread with
        # nothing open (the sweep's worker threads)
        self.adopt = (-1, "")
        self.certificates = []
        self.sweep_cpu_s = []
        self._thread()  # the creating thread is thread 0

    def _thread(self) -> _Thread:
        with self._lock:
            th = _Thread(len(self._threads))
            self._threads[threading.get_ident()] = th
        return th

    def open(self, name, tag="", count=0, op=None, cpu=False):
        th = self._threads.get(threading.get_ident()) or self._thread()
        stack = th.stack
        parent, inherited = (stack[-1][0], stack[-1][2]) if stack else self.adopt
        entry = (
            next(self._ids), name, inherited if op is None else op, tag, count, parent,
            time.thread_time() if cpu else None, time.perf_counter(),
        )
        stack.append(entry)
        return th, entry

    def close(self, th, entry):
        end = time.perf_counter()
        sid, name, op, tag, count, parent, cpu0, start = entry
        cpu_s = math.nan if cpu0 is None else time.thread_time() - cpu0
        th.stack.pop()
        th.spans.append((sid, name, start, end, parent, op, tag, count, cpu_s))

    @contextlib.contextmanager
    def span(self, name, op=None):
        """Record one span around a block; `op` starts a new operation."""
        h = self.open(name, op=op)
        try:
            yield
        finally:
            self.close(*h)

    def collect(self) -> dict:
        """All closed spans as numpy columns, row i the i-th span opened;
        names, operations and tags are codes into `strings`."""
        threads = list(self._threads.values())
        spans = [s for th in threads for s in th.spans]
        thread = np.array([th.index for th in threads for _ in th.spans], dtype=np.int64)
        cols = list(zip(*spans)) or [()] * 9
        ids = np.array(cols[0], dtype=np.int64)
        order = np.argsort(ids)
        row_of = np.full(int(ids.max(initial=-1)) + 2, -1, dtype=np.int64)
        row_of[ids[order]] = np.arange(len(ids))  # row_of[-1] stays -1: no parent
        codes = {"": 0}

        def coded(col):
            return np.array([codes.setdefault(v, len(codes)) for v in col], dtype=np.int64)

        def column(col, dtype):
            return np.array(col, dtype=dtype)[order]

        out = {
            "name": coded(cols[1])[order],
            "start": column(cols[2], np.float64),
            "end": column(cols[3], np.float64),
            "parent": row_of[column(cols[4], np.int64)],
            "op": coded(cols[5])[order],
            "tag": coded(cols[6])[order],
            "count": column(cols[7], np.int64),
            "thread": thread[order],
            "cpu_s": column(cols[8], np.float64),
        }
        out["strings"] = np.array(sorted(codes, key=codes.get))
        out["fft_bytes"] = np.int64(sum(th.fft_bytes for th in threads))
        return out


# ---------------------------------------------------------------------------
# wrappers


def _plain(tracer, fn, name):
    tr_open, tr_close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        h = tr_open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr_close(*h)

    return wrapper


def _fft(tracer, fn):
    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        rows = x.size // x.shape[-1] if getattr(x, "ndim", 0) else 1
        th, entry = tracer.open("spectral.fft", count=rows)
        try:
            out = fn(x, *args, **kwargs)
        finally:
            tracer.close(th, entry)
        th.fft_bytes += x.nbytes + out.nbytes
        return out

    return wrapper


def _schedule(tracer, fn, name, kind, scheme=None):
    """evolve (tag = scheme, count = T/tau steps) or a public one-step call."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kind == "evolve":
            a = sig.bind(*args, **kwargs).arguments
            tag = a["scheme"].value
            steps = int(round(a["T"] / a["ctx"].tau)) if a["T"] else 0
        else:
            tag, steps = scheme, 1
        h = tracer.open(name, tag=tag, count=steps, cpu=True)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(*h)

    return wrapper


def _reference(tracer, fn, name):
    inner = _plain(tracer, fn, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ref = inner(*args, **kwargs)
        tracer.certificates.append(float(ref.certificate))
        return ref

    return wrapper


def _sweep(tracer, fn, name):
    """run_sweep: threads it starts are adopted by this span; records the CPU
    time (process plus children) the sweep consumed."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = os.times()
        th, entry = tracer.open(name)
        saved, tracer.adopt = tracer.adopt, (entry[0], entry[2])
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.adopt = saved
            tracer.close(th, entry)
            after = os.times()
            tracer.sweep_cpu_s.append(sum(after[:4]) - sum(before[:4]))

    return wrapper


def _cell(tracer, fn):
    """The harness's own binding of evolve: one call is one sweep cell, its own
    operation, with the thread CPU time it consumed."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        a = sig.bind(*args, **kwargs).arguments
        op = f"cell:{a['scheme'].value}:c={a['ctx'].m.c!r}:tau={a['ctx'].tau!r}"
        h = tracer.open("harness.cell", op=op, cpu=True)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(*h)

    return wrapper


class _FftModule:
    """Stands in for the scipy.fft module inside a kguniform module."""

    def __init__(self, tracer):
        self.fft = _fft(tracer, scipy.fft.fft)
        self.ifft = _fft(tracer, scipy.fft.ifft)

    def __getattr__(self, name):
        return getattr(scipy.fft, name)


def _kg_modules():
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "kguniform" or name.startswith("kguniform."))
    }


def install(tracer: Tracer):
    """Wrap every traced binding; return (restore, names of targets not found)."""
    mods = _kg_modules()
    saved = []  # (module, attribute, original)

    def replace(mod, attr, new):
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    missing = []
    try:
        for modname, fname, span, kind in TARGETS:
            home = mods.get(f"kguniform.{modname}")
            original = getattr(home, fname, None)
            if original is None:
                missing.append(f"{modname}.{fname}")
                continue
            if kind in ("evolve", "step"):
                wrapped = _schedule(tracer, original, span, kind, STEP_FUNCTIONS.get(fname))
            elif kind == "reference":
                wrapped = _reference(tracer, original, span)
            elif kind == "sweep":
                wrapped = _sweep(tracer, original, span)
            else:
                wrapped = _plain(tracer, original, span)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replace(mod, attr, wrapped)

        fft_module = _FftModule(tracer)
        fft_funcs = {id(scipy.fft.fft): fft_module.fft, id(scipy.fft.ifft): fft_module.ifft}
        for name, mod in mods.items():
            if name in FFT_EXCLUDED_MODULES:
                continue
            for attr, value in list(vars(mod).items()):
                if value is scipy.fft:
                    replace(mod, attr, fft_module)
                elif id(value) in fft_funcs:
                    replace(mod, attr, fft_funcs[id(value)])

        harness = mods.get("kguniform.harness")
        if harness is not None and hasattr(harness, "evolve"):
            replace(harness, "evolve", _cell(tracer, harness.evolve))
    except BaseException:
        _restore(saved)
        raise

    return (lambda: _restore(saved)), missing


def _restore(saved):
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


SCHEMES = tuple(STEP_FUNCTIONS.values())


def self_times(sp: dict) -> np.ndarray:
    """Duration minus the part of the span's interval its children cover.

    Children on the span's own thread nest and never overlap, so their
    durations add; children adopted from other threads may overlap each
    other, so for their parents the union of child intervals is taken.
    """
    start, end, parent, thread = sp["start"], sp["end"], sp["parent"], sp["thread"]
    dur = end - start
    n = len(dur)
    has = parent >= 0
    cover = np.bincount(parent[has], weights=dur[has], minlength=n)
    cross = np.zeros(n, bool)
    cross[has] = thread[has] != thread[parent[has]]
    for p in np.unique(parent[cross]):
        kids = np.flatnonzero(parent == p)
        iv = sorted(
            (max(start[k], start[p]), min(end[k], end[p])) for k in kids
        )
        total, reach = 0.0, -math.inf
        for s, e in iv:
            if e > reach:
                total += e - max(s, reach)
                reach = e
        cover[p] = total
    return dur - cover


def summarize(sp: dict, tracer: Tracer) -> dict:
    """Per-layer metrics of one traced body (names as in BENCHMARK.json)."""
    strings = list(sp["strings"])
    sid = {s: i for i, s in enumerate(strings)}
    name, parent, tag, count = sp["name"], sp["parent"], sp["tag"], sp["count"]
    dur = sp["end"] - sp["start"]
    self_s = self_times(sp)
    n = len(name)

    def is_(span):
        return name == sid.get(span, -1)

    # an entry is a call into a layer from outside it (nested calls of the
    # same span name, e.g. phi inside phi_moment, are not counted again)
    entry = np.ones(n, bool)
    has = parent >= 0
    entry[has] = name[parent[has]] != name[has]

    def calls(span):
        return float(np.count_nonzero(is_(span) & entry))

    def total_self(span):
        return float(self_s[is_(span)].sum())

    def total_dur(span):
        return float(dur[is_(span) & entry].sum())

    # scheme context: evolve/step spans carry it, descendants inherit it
    sched = np.zeros(n, bool)
    for s in SCHEDULE_SPANS:
        sched |= is_(s)
    ctx = np.where(sched, tag, -1)
    for _ in range(64):
        nxt = np.where(sched | (parent < 0), ctx, ctx[np.maximum(parent, 0)])
        if np.array_equal(nxt, ctx):
            break
        ctx = nxt
    fft = is_("spectral.fft")

    out = {}
    transforms = float(count[fft].sum())
    fft_self = total_self("spectral.fft")
    out["spectral.fft.calls"] = calls("spectral.fft")
    out["spectral.fft.transforms"] = transforms
    out["spectral.fft.self_s"] = fft_self
    out["spectral.fft.us_per_transform"] = 1e6 * fft_self / transforms if transforms else 0.0
    out["spectral.fft.bytes_computed"] = float(sp["fft_bytes"])
    out["spectral.phi.calls"] = calls("spectral.phi")
    out["spectral.phi.self_s"] = total_self("spectral.phi")
    out["spectral.multipliers.self_s"] = total_self("spectral.multipliers")
    out["spectral.norm.self_s"] = total_self("spectral.norm")
    out["model.phase.calls"] = calls("model.phase")
    out["model.phase.self_s"] = total_self("model.phase")
    out["model.kernels.calls"] = calls("model.kernels")
    out["model.kernels.self_s"] = total_self("model.kernels")
    out["model.state.self_s"] = total_self("model.state")

    out["integrators.evolve.calls"] = calls("integrators.evolve")
    out["integrators.evolve.self_s"] = total_self("integrators.evolve")
    out["integrators.steps"] = float(count[sched & entry].sum())
    for scheme in SCHEMES:
        mine = sched & entry & (tag == sid.get(scheme, -1))
        steps = float(count[mine].sum())
        ffts = np.count_nonzero(fft & (ctx == sid.get(scheme, -1)))
        # thread CPU time, so that a sweep worker waiting for the GIL does
        # not count as stepping
        cpu = float(sp["cpu_s"][mine].sum())
        out[f"integrators.step_us.{scheme}"] = 1e6 * cpu / steps if steps else 0.0
        out[f"integrators.fft_per_step.{scheme}"] = ffts / steps if steps else 0.0
    out["integrators.reference.calls"] = calls("integrators.reference")
    out["integrators.reference.s"] = total_dur("integrators.reference")
    out["integrators.reference.certificate_max"] = max(tracer.certificates, default=0.0)
    out["integrators.oracle.calls"] = calls("integrators.oracle")
    out["integrators.oracle.s"] = total_dur("integrators.oracle")

    sweep = is_("harness.sweep")
    cell = is_("harness.cell")
    in_sweep = has & np.isin(parent, np.flatnonzero(sweep))
    out["harness.sweep.s"] = float(dur[sweep].sum())
    out["harness.ref_s"] = float(dur[is_("integrators.reference") & in_sweep].sum())
    busy = float(np.nansum(sp["cpu_s"][cell]))
    wall = float(sp["end"][cell].max() - sp["start"][cell].min()) if cell.any() else 0.0
    out["harness.cells_busy_s"] = busy
    out["harness.cells_wall_s"] = wall
    out["harness.cell_concurrency"] = busy / wall if wall else 0.0
    out["harness.self_s"] = float(self_s[sweep].sum())
    out["harness.cpu_s"] = float(sum(tracer.sweep_cpu_s))
    out["harness.emit.s"] = total_dur("harness.emit")

    out["verify.local_defects.s"] = total_dur("verify.local_defects")
    out["verify.omega_quadrature.s"] = total_dur("verify.omega_quadrature")
    out["verify.block_quadrature.s"] = total_dur("verify.block_quadrature")
    out["trace.spans"] = float(n)
    return out
