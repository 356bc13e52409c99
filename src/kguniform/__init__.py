"""Uniformly accurate exponential integrators for the cubic Klein-Gordon
equation on the torus, valid from c = 1 up to the Schroedinger limit."""

from .spectral import (
    SpectralGrid,
    SpectralField,
    MultiplierSet,
    make_grid,
    make_multipliers,
    field_from_values,
    zero_field,
    constant_field,
    conj_field,
    apply_symbol,
    phi,
    phi_moment,
    sobolev_norm,
)
from .model import (
    KgState,
    TwistedPair,
    KernelBundle,
    phase_factor,
    to_first_order,
    from_first_order,
    twist,
    untwist,
    reconstruct_z,
    cubic,
    kernel_psi,
    kernel_vartheta,
    kernel_omega,
    kernel_theta,
    kernel_bundle,
    oscillatory_block,
    energy,
)
from .integrators import (
    SchemeId,
    StepContext,
    ReferenceSolution,
    ReferenceUnreliableError,
    NonFiniteStateError,
    step_uei1,
    step_uei1_real,
    step_uei2_real,
    step_lie_limit,
    step_strang_limit,
    step_largec_uei1,
    duhamel_oracle_step,
    evolve,
    reference_solution,
)
from .harness import (
    SweepConfig,
    SweepRow,
    ErrorTable,
    paper_initial_data,
    run_sweep,
    fit_order,
    emit,
    parse_table,
)

__version__ = "0.1.0"
