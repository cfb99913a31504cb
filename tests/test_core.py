import warnings

import numpy as np
import pytest

from ncrkhs.core import (
    DEFAULT_TOL,
    DimMismatch,
    InputError,
    LetterOutOfRange,
    MatrixTuple,
    NonSquare,
    NotPsd,
    Tolerances,
    as_cmatrix,
    direct_sum,
    frobenius,
    hermitize,
    kron,
    psd_factor,
    psd_verdict,
    rel_err,
    word_eval,
    word_transpose,
    words_up_to,
    zero_tuple,
)
from ncrkhs.kernels import MomentKernel
from ncrkhs.sampling import complex_gaussian, random_psd, rng_from_seed
from ncrkhs.series import NcSeries


def test_kron_identity_case():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = kron(np.eye(2), b)
    np.testing.assert_allclose(out, np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), b]]))


def test_kron_scalar_case():
    b = complex_gaussian(rng_from_seed(0), 3, 2)
    np.testing.assert_allclose(kron(np.array([[2.0]]), b), 2 * b)


def test_kron_hand_expansion():
    # hand expansion: e_{12} (x) I_2 puts I_2 in the (1,2) block
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(kron(a, np.eye(2)), expected)


def test_kron_mixed_product_property():
    rng = rng_from_seed(7)
    a = complex_gaussian(rng, 2, 3)
    c = complex_gaussian(rng, 3, 2)
    b = complex_gaussian(rng, 2, 2)
    d = complex_gaussian(rng, 2, 4)
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.linalg.norm(lhs - rhs) <= DEFAULT_TOL.eq_rel * max(1.0, np.linalg.norm(lhs))


def test_min_eig_trivial_cases():
    assert psd_verdict([np.eye(3)]).min_eig == pytest.approx(1.0)
    assert psd_verdict([np.diag([2.0, -1.0])]).min_eig == pytest.approx(-1.0)


def test_min_eig_derived_value():
    # characteristic polynomial of [[2,1],[1,2]] is (t-1)(t-3)
    assert psd_verdict([np.array([[2.0, 1.0], [1.0, 2.0]])]).min_eig == pytest.approx(1.0)


def test_min_eig_nonsquare_rejected():
    with pytest.raises(NonSquare):
        psd_factor(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "diff, scale",
    [(1.0, np.inf), (np.array([0.0, np.nan]), 1.0)],
    ids=["infinite-scale", "nan-array-diff"],
)
def test_rel_err_rejects_non_finite_norms(diff, scale):
    with pytest.raises(InputError, match="overflow"):
        rel_err(diff, scale)


def test_rel_err_is_elementwise_on_arrays():
    np.testing.assert_array_equal(rel_err(np.array([0.5, 4.0]), 2.0), [0.25, 2.0])
    assert rel_err(0.5, 0.1) == 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hermitize_rejects_overflow():
    # each entry is finite, but m + m* is not
    with pytest.raises(InputError, match="overflow"):
        hermitize(np.full((2, 2), 1e308), "the test")


def test_frobenius_rescales_huge_entries_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius(np.full((2, 2), 1e200 + 0j)) == 2e200
        blocks = frobenius(np.full((2, 2, 2, 2), 1e200 + 0j), axis=(1, 3))
        np.testing.assert_array_equal(blocks, np.full((2, 2), 2e200))
        # a norm that does not overflow keeps its bits
        assert frobenius(np.array([[3.0, 4.0]])) == 5.0


def test_frobenius_rescales_tiny_entries():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius(np.full((3, 3), 1e-200 + 0j)) == pytest.approx(3e-200, rel=1e-15, abs=0.0)
        assert frobenius(np.array([[3e-170, 4e-170j]])) == pytest.approx(5e-170, rel=1e-15, abs=0.0)
        # each block is rescaled by its own largest entry, next to huge and zero blocks
        m = np.zeros((3, 2, 3, 2), dtype=np.complex128)
        m[0, :, 0, :] = 1e-200
        m[1, :, 1, :] = 1e200
        m[2, 0, 2, 0] = 1.0
        np.testing.assert_allclose(frobenius(m, axis=(1, 3)), np.diag([2e-200, 2e200, 1.0]), rtol=1e-15)
        # zero input keeps a zero norm
        assert frobenius(np.zeros((2, 2))) == 0.0
        assert frobenius(np.zeros((0, 0))) == 0.0
        np.testing.assert_array_equal(frobenius(np.zeros((2, 2, 2, 2)), axis=(1, 3)), np.zeros((2, 2)))
        assert frobenius(np.zeros((0, 2, 0, 2)), axis=(1, 3)).shape == (0, 0)


def test_psd_factor_identity():
    f = psd_factor(np.eye(2))
    np.testing.assert_allclose(f @ f.conj().T, np.eye(2), atol=1e-12)


def test_psd_factor_rank_deficient():
    m = np.diag([4.0, 0.0])
    f = psd_factor(m)
    assert f.shape[1] == 1
    np.testing.assert_allclose(f @ f.conj().T, m, atol=1e-12)


def test_psd_factor_round_trip():
    m = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    f = psd_factor(m)
    assert np.linalg.norm(m - f @ f.conj().T) <= 1e-12


def test_psd_factor_rejects_negative():
    with pytest.raises(NotPsd) as err:
        psd_factor(np.diag([1.0, -0.5]))
    assert err.value.min_eig == pytest.approx(-0.5)


def test_psd_factor_random_round_trips():
    rng = rng_from_seed(11)
    for _ in range(100):
        n = int(rng.integers(1, 41))
        m = random_psd(rng, n)
        f = psd_factor(m)
        err = np.linalg.norm(m - f @ f.conj().T)
        assert err <= DEFAULT_TOL.eq_rel * max(1.0, np.linalg.norm(m))


def test_psd_verdict_worst_relative_to_scale():
    rng = rng_from_seed(12)
    u, _ = np.linalg.qr(complex_gaussian(rng, 2, 2))
    big = np.diag([-3.0, 100.0])                   # most negative, but -0.03 of its scale
    small = u @ np.diag([-0.5, 1.0]) @ u.conj().T  # -0.5 of its scale
    verdict = psd_verdict([big, small, np.eye(2)])
    assert not verdict.passed
    assert verdict.min_eig == pytest.approx(-0.5)
    w = verdict.witness
    np.testing.assert_allclose(small @ w, -0.5 * w, atol=1e-12)
    assert np.linalg.norm(w) == pytest.approx(1.0)


def test_psd_verdict_pass_boundary_and_empty():
    tol = Tolerances(psd_floor=0.25)
    # the floor is -psd_floor * max(1, ||m||_2) = -0.25 * 2
    at_floor = psd_verdict([np.diag([-0.5, 2.0])], tol)
    assert at_floor.passed and at_floor.witness is None
    assert at_floor.min_eig == -0.5
    assert not psd_verdict([np.diag([-0.5000001, 2.0])], tol).passed
    assert psd_verdict([np.eye(3), random_psd(rng_from_seed(13), 4)]).witness is None
    with pytest.raises(InputError):
        psd_verdict([])


@pytest.mark.parametrize(
    "entries",
    [
        pytest.param({(1, 2): np.nan}, id="nan"),
        pytest.param({(1, 2): np.inf}, id="inf"),
        pytest.param({(1, 2): complex(0.0, -np.inf)}, id="-infj"),
        # finite entries whose symmetrization (m + m*)/2 overflows
        pytest.param({(1, 2): 1e308, (2, 1): 1e308}, id="symmetrization-overflow"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_psd_tests_reject_non_finite_entries(entries):
    m = np.eye(3, dtype=complex)
    for index, value in entries.items():
        m[index] = value
    with pytest.raises(InputError, match="non-finite"):
        psd_factor(m)
    with pytest.raises(InputError, match="non-finite"):
        psd_verdict([np.eye(2), m])


def test_word_transpose_and_range():
    assert word_transpose((2, 1)) == (1, 2)
    z = zero_tuple(1, 2)
    with pytest.raises(LetterOutOfRange):
        word_eval((2,), z)


@pytest.mark.parametrize("letter", [1.7, "2", True, np.bool_(True), None])
@pytest.mark.parametrize("build", [
    lambda w: NcSeries(2, 1, 1, {w: [[1.0]]}),
    lambda w: MomentKernel(2, 1, {(w, w): [[1.0]]}, 1),
], ids=["series", "moment-kernel"])
def test_word_letters_must_be_integers(build, letter):
    # a letter is an integral number, as in the JSON codec; it is never rounded or parsed
    with pytest.raises(InputError, match="non-integer letter"):
        build((letter,))
    assert build((np.int64(2),)) is not None and build((2.0,)) is not None


def test_word_eval_cases():
    z = zero_tuple(2, 3)
    np.testing.assert_allclose(word_eval((), z), np.eye(3))

    z1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    z2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    z = MatrixTuple((z1, z2))
    # stored (2, 1) means Z_2 @ Z_1, by hand [[0,0],[0,1]]
    np.testing.assert_allclose(word_eval((2, 1), z), np.array([[0, 0], [0, 1]], dtype=complex))


def test_word_eval_concatenation():
    rng = rng_from_seed(3)
    z = MatrixTuple(tuple(complex_gaussian(rng, 3, 3) for _ in range(2)))
    u, w = (1, 2), (2, 2, 1)
    lhs = word_eval(u + w, z)
    rhs = word_eval(u, z) @ word_eval(w, z)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


def test_direct_sum_cases():
    rng = rng_from_seed(5)
    z = MatrixTuple(tuple(complex_gaussian(rng, 2, 2) for _ in range(2)))
    single = direct_sum([z])
    for a, b in zip(single.coords, z.coords):
        np.testing.assert_allclose(a, b)

    a = MatrixTuple((np.array([[2.0]]),))
    b = MatrixTuple((np.array([[5.0]]),))
    np.testing.assert_allclose(direct_sum([a, b]).coords[0], np.diag([2.0, 5.0]))

    w = MatrixTuple((complex_gaussian(rng, 1, 1), complex_gaussian(rng, 1, 1)))
    s = direct_sum([z, w])
    assert s.n == 3
    np.testing.assert_allclose(s.coords[0][:2, :2], z.coords[0])
    np.testing.assert_allclose(s.coords[0][2:, 2:], w.coords[0])
    assert np.all(s.coords[0][:2, 2:] == 0)


def test_direct_sum_associative_exact():
    rng = rng_from_seed(9)
    ts = [MatrixTuple(tuple(complex_gaussian(rng, k, k) for _ in range(2))) for k in (1, 2, 3)]
    left = direct_sum([direct_sum(ts[:2]), ts[2]])
    right = direct_sum([ts[0], direct_sum(ts[1:])])
    for a, b in zip(left.coords, right.coords):
        assert np.array_equal(a, b)


def test_direct_sum_dim_mismatch():
    a = zero_tuple(1, 2)
    b = zero_tuple(2, 2)
    with pytest.raises(DimMismatch):
        direct_sum([a, b])


def test_words_up_to_graded_lex():
    ws = words_up_to(2, 2)
    assert ws == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert words_up_to(3, 0) == [()]
    with pytest.raises(InputError, match="must be >= 0"):
        words_up_to(2, -1)


def test_a_negative_seed_is_an_input_error():
    with pytest.raises(InputError, match="invalid seed -1"):
        rng_from_seed(-1)
    assert rng_from_seed(0).integers(10) == np.random.default_rng(0).integers(10)


def test_tolerances_validate():
    with pytest.raises(Exception):
        Tolerances(eq_rel=0.0)


def _reference_coords(coords):
    """The per-coordinate check: each a finite matrix, then all square of one size."""
    mats = tuple(as_cmatrix(c) for c in coords)
    n = mats[0].shape[0]
    if any(c.shape != (n, n) for c in mats):
        raise DimMismatch("all coordinates must be square of the same size")
    return mats


_COORDS = {
    "square": (np.eye(2), [[0, 1], [0, 0]]),
    "complex-and-int": ([[1j]], [[2]], np.array([[3]], dtype=np.int64)),
    "empty-matrices": (np.zeros((0, 0)), np.zeros((0, 0))),
    "non-square": (np.ones((2, 3)), np.ones((2, 3))),
    "different-sizes": (np.eye(2), np.eye(3)),
    "non-finite": (np.eye(2), [[np.nan, 0], [0, 1]]),
    # a non-finite coordinate is reported before a size mismatch, as each coordinate is read first
    "different-sizes-then-non-finite": (np.eye(2), np.eye(3), [[np.inf]]),
    "one-dimensional": (np.eye(2), [1.0, 2.0]),
    "non-numeric": (np.eye(1), [["x"]]),
}


@pytest.mark.parametrize("coords", _COORDS.values(), ids=_COORDS.keys())
def test_matrix_tuple_matches_per_coordinate_reference(coords):
    try:
        want = _reference_coords(coords)
    except Exception as exc:  # the tuple must raise the same type and message
        with pytest.raises(type(exc)) as got:
            MatrixTuple(coords)
        assert str(got.value) == str(exc)
        return
    z = MatrixTuple(coords)
    assert len(z.coords) == len(want)
    for got, c in zip(z.coords, want):
        assert got.dtype == c.dtype and got.shape == c.shape and got.tobytes() == c.tobytes()
        assert not got.flags.writeable
