"""Free noncommutative kernels, RKHS models, multipliers and cp maps at finite matrix scale.

The package loads lazily (PEP 562): ``import ncrkhs`` runs no submodule, and
the first use of an exported name imports the module that defines it.
"""

import importlib

# each exported name, by the submodule that defines it
_EXPORTS = {
    "core": (
        "DEFAULT_TOL", "BadIntertwiner", "DependentBasis", "DimMismatch", "InconsistentEvaluator",
        "Infeasible", "InputError", "LetterOutOfRange", "MatrixTuple", "MissingPair", "NcrkhsError",
        "NonSquare", "NotContraction", "NotCp", "NotInTarget", "NotNilpotent", "NotPsd", "PsdVerdict",
        "SamplerUnavailable", "ShapeMismatch", "Tolerances", "TruncationRefused", "TruncationTooShort",
        "Word", "direct_sum", "kron", "psd_factor", "psd_verdict", "word_eval", "word_transpose",
        "words_up_to", "zero_tuple",
    ),
    "series": (
        "AxiomReport", "NcSeries", "add", "check_respects_direct_sums", "check_respects_intertwinings",
        "evaluate", "evaluate_on_nilpotent", "extract_taylor_coefficients", "functional_evaluator",
        "linear_combination", "multiply", "nilpotency_order", "scale", "truncate", "truncated_shift_tuple",
    ),
    "kernels": (
        "AlgebraSpec", "CallableKernel", "CbNormReport", "CpCertificate", "EnvelopeKernel",
        "FactoredKernel", "GramBasisKernel", "KernelElement", "KolmogorovKernel", "KolmogorovSample",
        "MomentKernel", "cb_norm_report", "check_kernel_axioms", "cp_certificate",
        "cp_certificate_similarity_reduced", "draw_kernel_axiom_samples", "kolmogorov_at_sample",
        "moment_kernel_from_factor", "sample_points", "szego_kernel",
    ),
    "rkhs": (
        "RkhsModel", "bergman_kernel", "kernel_element_coefficients", "lifted_norm", "orthonormalized",
        "point_evaluation", "reproducing_check", "sigma_action", "sigma_matrix",
    ),
    "multipliers": (
        "BrangesianDecomposition", "Multiplier", "Represented", "adjoint_on_kernel_element",
        "apply_multiplier", "apply_multiplier_series", "brangesian_complement", "contractive_containment",
        "contractivity_certificate", "dbr_kernel", "difference_kernel", "multiplier_matrix",
    ),
    "formal": (
        "FormalFactorization", "convolve_truncated", "formal_kolmogorov_truncated",
        "is_formal_positive_truncated", "moment_matrix", "nilpotent_positivity_check",
    ),
    "cpmaps": (
        "CpMap", "CpMapRkhs", "StinespringDilation", "cb_norm_cp", "choi", "effros_ruan_lower_bound",
        "is_cp", "sampled_amplified_positivity", "stinespring",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules are exported names too
_MODULES = (*_EXPORTS, "sampling")

__all__ = sorted([*_HOME, *_MODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
