"""Idealized simulation of pseudo-pure state preparation on small spin systems.

Simultaneous line-selective pulses equalize every population except the
target's, a crusher gradient removes the coherences, and what is left
behaves like the target basis state.  The package bundles the operator
algebra, the pulse-angle solver, a pulse-program language, stick-spectrum
and tomography readout, and a one-step 1-SAT search that runs on the
prepared states.
"""

from .core import (
    PAULI,
    PurePart,
    SpinSystem,
    bits_of,
    coherence_order,
    crush,
    evolve,
    expm_unitary,
    flipped_spin,
    generator,
    level_of,
    max_rel_error,
    pure_part,
    spin_op,
    thermal_deviation,
    transition_op,
)
from .errors import (
    CompileError,
    ContractError,
    InputError,
    NoSolutionError,
    NotPseudoPureError,
    ParseError,
    PpsimError,
)
from .prep import (
    CascadeSpec,
    CascadeStep,
    SolverResult,
    default_cascade,
    prepare_pseudo_pure,
    preparation_unitary,
    residual,
    solve_angles,
)
from .presets import PRESETS, get_preset
from .readout import (
    MeasurementSet,
    StickSpectrum,
    TomographyResult,
    readout_spectrum,
    reconstruct,
    simulate_measurements,
    tomography_settings,
    transitions_of_spin,
)
from .hogg import (
    OneSatFormula,
    conflicts,
    hogg_run,
    mixing,
    parse_formula,
    phase_oracle,
    satisfying_assignment,
    search_unitary,
    walsh,
)

__version__ = "0.1.0"
