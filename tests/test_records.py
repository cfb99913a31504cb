"""The record classes: constructor defaults, validation text, read-only fields and equality."""

import numpy as np
import pytest

from ncrkhs.core import (
    DEFAULT_TOL,
    DimMismatch,
    InputError,
    LetterOutOfRange,
    MatrixTuple,
    PsdVerdict,
    Tolerances,
    psd_verdict,
    zero_tuple,
)
from ncrkhs.cpmaps import CpMap, stinespring
from ncrkhs.formal import formal_kolmogorov_truncated
from ncrkhs.kernels import (
    FULL_MATRIX,
    SCALAR,
    AlgebraSpec,
    CpCertificate,
    KernelAxiomSamples,
    KernelElement,
    KolmogorovKernel,
    cp_certificate,
    szego_kernel,
)
from ncrkhs.multipliers import Multiplier
from ncrkhs.series import AxiomReport, Multiplied, NcSeries, WordIndicator


def test_tolerances_defaults_validation_and_equality():
    assert (DEFAULT_TOL.eq_rel, DEFAULT_TOL.psd_floor) == (1e-10, 1e-9)
    assert Tolerances() == DEFAULT_TOL and hash(Tolerances()) == hash(DEFAULT_TOL)
    assert Tolerances(psd_floor=1e-6) != DEFAULT_TOL
    assert repr(Tolerances()) == "Tolerances(eq_rel=1e-10, psd_floor=1e-09)"
    for bad in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InputError, match="^tolerance eq_rel must be finite and strictly positive$"):
            Tolerances(eq_rel=bad)
        with pytest.raises(InputError, match="^tolerance psd_floor must be finite and strictly positive$"):
            Tolerances(1e-10, bad)


def test_algebra_spec_equality_and_validation():
    assert AlgebraSpec() == AlgebraSpec(SCALAR, 1, 1) == AlgebraSpec(kind=SCALAR, k=1, r=1)
    assert hash(AlgebraSpec(FULL_MATRIX, 2, 3)) == hash(AlgebraSpec(FULL_MATRIX, 2, 3))
    assert AlgebraSpec(FULL_MATRIX, 2, 1) != AlgebraSpec(FULL_MATRIX, 2, 2)
    assert AlgebraSpec(FULL_MATRIX, 1, 1) != AlgebraSpec(SCALAR, 1, 1)
    assert AlgebraSpec() != (SCALAR, 1, 1)
    assert AlgebraSpec(FULL_MATRIX, 2, 3).rep_dim == 6
    with pytest.raises(InputError, match="^unknown algebra kind 'quaternion'$"):
        AlgebraSpec("quaternion")
    with pytest.raises(InputError, match="^algebra sizes must be >= 1$"):
        AlgebraSpec(FULL_MATRIX, 0)
    with pytest.raises(InputError, match="^scalar algebra has k = 1$"):
        AlgebraSpec(SCALAR, 2)


def test_multipliers_compare_algebras_by_value():
    h = NcSeries.constant(1, np.eye(1, 2))
    source = KolmogorovKernel(AlgebraSpec(FULL_MATRIX, 1, 2), h, s=1)
    Multiplier(NcSeries.constant(1, [[1.0]]), source, KolmogorovKernel(AlgebraSpec(FULL_MATRIX, 1, 2), h, s=1))
    with pytest.raises(DimMismatch, match="must share the coefficient algebra"):
        Multiplier(NcSeries.constant(1, [[1.0]]), source, KolmogorovKernel(AlgebraSpec(SCALAR, 1, 2), h, s=1))


def _records():
    z = zero_tuple(1, 2)
    kernel = szego_kernel(1, 2)
    f = NcSeries.constant(1, [[1.0]])
    yield Tolerances(), "eq_rel"
    yield AlgebraSpec(), "k"
    yield z, "coords"
    yield z, "stacked"
    yield f, "terms"
    yield WordIndicator(1, 1, ((),)), "words"
    yield Multiplied(f, WordIndicator(1, 1, ((),))), "s"
    yield Multiplied(f, f), "f"
    yield KernelElement(kernel, z, np.ones((1, 2)), np.ones(2)), "v"
    yield KernelAxiomSamples(), "hermitian"
    yield Multiplier(f, kernel, kernel), "s"
    yield psd_verdict([np.eye(2)]), "min_eig"
    yield AxiomReport(True, 0.0, 1e-10), "passed"
    yield cp_certificate(kernel, n_points=2, sizes=(1, 2), seed=1), "passed"
    yield stinespring(CpMap(1, 1, {(0, 0): [[1.0]]})), "r"
    yield formal_kolmogorov_truncated(kernel, 1), "rank"


@pytest.mark.parametrize("record, field", [pytest.param(r, f, id=f"{type(r).__name__}.{f}") for r, f in _records()])
def test_record_fields_are_read_only(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value


def test_records_take_no_new_attributes():
    for record in (Tolerances(), zero_tuple(1, 1), KernelAxiomSamples()):
        with pytest.raises(AttributeError):
            record.extra = 1


def test_result_records_keep_their_defaults():
    verdict = psd_verdict([np.eye(2)])
    assert isinstance(verdict, PsdVerdict) and verdict.passed and verdict.witness is None
    assert AxiomReport(True, 0.0, 1e-10).witness is None
    cert = CpCertificate(True, 0.0, {}, 1)
    assert cert.witness is None and cert.points == ()


def test_axiom_samples_share_no_list():
    a, b = KernelAxiomSamples(), KernelAxiomSamples()
    a.hermitian.append(1)
    a.direct_sums.append(2)
    a.intertwinings.append(3)
    assert (b.hermitian, b.direct_sums, b.intertwinings) == ([], [], [])
    given = [4]
    assert KernelAxiomSamples(hermitian=given).hermitian is given


def test_matrix_tuple_and_series_keep_their_validation():
    with pytest.raises(InputError, match="at least one coordinate"):
        MatrixTuple(())
    with pytest.raises(InputError, match="^d must be >= 1$"):
        NcSeries(0, 1, 1, {})
    with pytest.raises(InputError, match="^coefficient dimensions must be >= 1$"):
        NcSeries(1, 0, 1, {})
    with pytest.raises(LetterOutOfRange):
        NcSeries(1, 1, 1, {(2,): [[1.0]]})
