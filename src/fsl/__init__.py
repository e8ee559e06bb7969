"""Fourier series loader: compile truncated Fourier series into linear-depth
state-preparation circuits, verify them with a built-in statevector simulator,
and account for truncation error exactly."""

from .circuit import (Circuit, Gate, GateCounts, GateKind, compose, depth, export_qasm,
                      from_json, gate_counts, peephole_cancel_cnots, to_json)
from .compiler import (CompileReport, FSLPlan, Loader, NonperiodicVariant,
                       compile_nonperiodic, compile_spec, prepare_spec, target_state)
from .errors import FSLError
from .fourier import (FourierSpec, GridFunction, decay_slope, dft_coefficients,
                      exact_infidelity, infidelity_bound, lanczos_filter, mirror_extend,
                      spectrum, truncate)
from .frqi import GrayImage, compile_frqi, frqi_target, phase_spectra, read_pgm
from .funcs import FunctionDef, builtin, expression, sample as sample_function
from .simulator import (ShotHistogram, Statevector, classical_fidelity, fidelity, run,
                        sample)
from .synth import (SchmidtForm, UCRAngles, build_inverse_qft, build_schmidt_circuit,
                    build_ucr_circuit, decompose_opaque, gray_transform, mottonen_angles,
                    schmidt_decompose, synth_unitary)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
