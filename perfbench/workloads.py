"""Seeded inputs, jobs and expected results for the three benchmark workloads.

Everything here is plain numpy and the standard library; nothing imports
``ncrkhs``.  Inputs are written in the library's documented JSON formats
(see its README), so the program under test receives only those files.
Each job carries the exit code, status and verdict the generator fixes by
construction, plus whatever independent reference :mod:`validate` needs.

The seed changes every random value but never a size, a degree, a point
count or a verdict, so job cost is the same for every seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("functional-cert", "nilpotent-formal", "cli-cold")


@dataclass
class Job:
    """One CLI invocation with what its output must be."""

    cls: str                  # job class: jobs of one class cost the same
    argv: list[str]           # subcommand and arguments, without the program
    exit: int                 # expected exit code
    status: str               # expected payload "status"
    check: str                # name of the validator in validate.CHECKS
    ref: dict = field(default_factory=dict)   # reference data for the validator
    inputs: list[str] = field(default_factory=list)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# random data
# ---------------------------------------------------------------------------

def cgauss(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def words_up_to(d, max_len):
    """All words of length <= max_len, graded lexicographic (the library's order)."""
    out, layer = [()], [()]
    for _ in range(max_len):
        layer = [w + (j,) for w in layer for j in range(1, d + 1)]
        out.extend(layer)
    return out


def random_series(rng, d, degree, p, q, decay=0.6):
    """Coefficients on every word up to ``degree``, shrinking with word length."""
    return {w: cgauss(rng, p, q) * decay ** len(w) for w in words_up_to(d, degree)}


def gaussian_point(rng, d, n, radius=0.5):
    """Dense Gaussian coordinates rescaled to spectral radius ``radius``."""
    coords = []
    for _ in range(d):
        m = cgauss(rng, n, n)
        coords.append(m * (radius / np.max(np.abs(np.linalg.eigvals(m)))))
    return coords


def nilpotent_point(rng, d, n):
    """Strictly upper-triangular coordinates of joint nilpotency order exactly n.

    Superdiagonal entries have modulus one, so the (i, i+L) entry of every
    length-L product is a product of unit-modulus numbers: no product of
    length < n is numerically zero, and every product of length n is
    exactly zero.  The order, and with it the work of a nilpotency test,
    is therefore the same for every seed.
    """
    coords = []
    for _ in range(d):
        m = np.triu(cgauss(rng, n, n), 2) * 0.3
        m[np.arange(n - 1), np.arange(1, n)] = np.exp(2j * np.pi * rng.random(n - 1))
        coords.append(m)
    return coords


def random_pd(rng, n):
    b = cgauss(rng, n, n)
    return b @ b.conj().T + np.eye(n)


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def word_powers(words, coords):
    """Z^w for every word, built along prefixes (product order Z_{l1} ... Z_{lN})."""
    n = coords[0].shape[0]
    powers = {(): np.eye(n, dtype=np.complex128)}
    for w in sorted(words, key=len):
        for k in range(1, len(w) + 1):
            if w[:k] not in powers:
                powers[w[:k]] = powers[w[:k - 1]] @ coords[w[k - 1] - 1]
    return powers


def series_value(terms, coords):
    """sum_w Z^w (x) f_w with the point index outermost."""
    powers = word_powers(list(terms), coords)
    return sum(np.kron(powers[w], c) for w, c in terms.items())


# ---------------------------------------------------------------------------
# JSON encoding in the library's file formats
# ---------------------------------------------------------------------------

def enc_matrix(m):
    m = np.asarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def enc_series(d, terms):
    first = next(iter(terms.values()))
    return {
        "d": d,
        "p": int(first.shape[0]),
        "q": int(first.shape[1]),
        "terms": [{"word": list(w), "coeff": enc_matrix(c)} for w, c in terms.items()],
    }


def enc_point(coords):
    return {"d": len(coords), "n": int(coords[0].shape[0]), "coords": [enc_matrix(c) for c in coords]}


def scalar_algebra():
    return {"kind": "scalar", "k": 1, "r": 1}


def enc_kolmogorov(d, h):
    """Scalar-algebra Kolmogorov kernel H(Z) (P (x) I_s) H(W)*, s = in_dim of h."""
    return {"form": "kolmogorov", "algebra": scalar_algebra(), "s": int(next(iter(h.values())).shape[1]),
            "h": enc_series(d, h)}


def enc_gram_basis(d, basis, gram):
    return {"form": "gram_basis", "algebra": scalar_algebra(),
            "basis": [enc_series(d, f) for f in basis], "gram": enc_matrix(gram)}


def enc_moments(d, moments, max_len, formal=False):
    out = {"form": "moment", "d": d, "y_dim": 1, "max_len": max_len,
           "moments": [{"row_word": list(a), "col_word": list(b), "coeff": enc_matrix(c)}
                       for (a, b), c in moments.items()]}
    if formal:
        out = {"formal": True, **out}
    return out


def szego_moments(d, max_len, empty_word=1.0):
    """K_{a,b} = delta_{a,b}; a negative empty-word entry makes the table indefinite."""
    moments = {(w, w): np.eye(1, dtype=np.complex128) for w in words_up_to(d, max_len)}
    moments[((), ())] = np.array([[empty_word]], dtype=np.complex128)
    return moments


def factor_moments(h):
    """K_{a,b} = H_a H_b*, positive by construction."""
    return {(a, b): ca @ cb.conj().T for a, ca in h.items() for b, cb in h.items()}


class Writer:
    """Writes input files under one directory and remembers their paths."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.count = 0

    def put(self, payload) -> str:
        self.count += 1
        path = os.path.join(self.root, f"in{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        return path


def _sizes_arg(sizes):
    return ",".join(str(s) for s in sizes)


def _gram_dim(points, sizes, y=1, clamp=None):
    sz = [min(s, clamp) if clamp else s for s in sizes]
    return y * sum(sz[i % len(sz)] for i in range(points))


def _cert(cls, argv, passed, gram_dim, inputs):
    return Job(cls, argv, 0 if passed else 3, "ok" if passed else "certificate_failed",
               "certificate", {"passed": passed, "gram_dim": gram_dim}, inputs)


# ---------------------------------------------------------------------------
# jobs shared by the workloads
# ---------------------------------------------------------------------------

def eval_job(rng, out, cls, d, degree, coeff_dim, n):
    terms = random_series(rng, d, degree, coeff_dim, coeff_dim)
    point = gaussian_point(rng, d, n)
    fs, fz = out.put(enc_series(d, terms)), out.put(enc_point(point))
    return Job(cls, ["eval", "--series", fs, "--point", fz], 0, "ok", "value",
               {"value": series_value(terms, point)}, [fs, fz])


def nilp_eval_job(rng, out, cls, d, degree, n):
    terms = random_series(rng, d, degree, 2, 2)
    point = nilpotent_point(rng, d, n)
    fs, fz = out.put(enc_series(d, terms)), out.put(enc_point(point))
    # every word in the support is shorter than the order n, so nothing is truncated
    return Job(cls, ["nilp-eval", "--series", fs, "--point", fz], 0, "ok", "value",
               {"value": series_value(terms, point)}, [fs, fz])


def not_nilpotent_job(rng, out, cls, d, degree, n):
    terms = random_series(rng, d, degree, 2, 2)
    fs, fz = out.put(enc_series(d, terms)), out.put(enc_point(gaussian_point(rng, d, n)))
    return Job(cls, ["nilp-eval", "--series", fs, "--point", fz], 2, "input_error", "error",
               {"contains": "nonvanishing products"}, [fs, fz])


def cp_job(rng, cls, kernel_file, points, sizes, sampler, passed, clamp=None):
    argv = ["cp-certify", "--kernel", kernel_file, "--points", str(points), "--sizes", _sizes_arg(sizes),
            "--sampler", sampler, "--seed", str(int(rng.integers(1 << 30)))]
    return _cert(cls, argv, passed, _gram_dim(points, sizes, clamp=clamp), [kernel_file])


def kolmogorov_job(rng, cls, kernel_file, points, sizes, rank):
    argv = ["kolmogorov", "--kernel", kernel_file, "--points", str(points), "--sizes", _sizes_arg(sizes),
            "--seed", str(int(rng.integers(1 << 30)))]
    return Job(cls, argv, 0, "ok", "kolmogorov", {"rank": rank, "points": points}, [kernel_file])


def multiplier_job(rng, out, cls, kernel_file, d, c, points, sizes):
    fs = out.put(enc_series(d, {(): np.array([[c]], dtype=np.complex128)}))
    argv = ["multiplier-check", "--source", kernel_file, "--target", kernel_file, "--s", fs,
            "--points", str(points), "--sizes", _sizes_arg(sizes), "--sampler", "gaussian",
            "--seed", str(int(rng.integers(1 << 30)))]
    # the de Branges-Rovnyak kernel of the constant c is (1 - |c|^2) K
    return _cert(cls, argv, abs(c) < 1, _gram_dim(points, sizes), [kernel_file, kernel_file, fs])


def containment_job(rng, out, cls, d, h, t, points, sizes):
    """K' = t K inside K: contractive exactly when t <= 1."""
    fk = out.put(enc_kolmogorov(d, h))
    fkp = out.put(enc_kolmogorov(d, {w: np.sqrt(t) * c for w, c in h.items()}))
    argv = ["containment", "--kprime", fkp, "--k", fk, "--points", str(points), "--sizes", _sizes_arg(sizes),
            "--sampler", "gaussian", "--seed", str(int(rng.integers(1 << 30)))]
    return _cert(cls, argv, t <= 1, _gram_dim(points, sizes), [fkp, fk])


def check_kernel_job(rng, cls, kernel_file, samples, sizes):
    argv = ["check-kernel", "--kernel", kernel_file, "--samples", str(samples), "--sizes", _sizes_arg(sizes),
            "--sampler", "gaussian", "--seed", str(int(rng.integers(1 << 30)))]
    return Job(cls, argv, 0, "ok", "axioms", {}, [kernel_file])


def formal_factor_job(cls, level, kernel_file, rank):
    argv = ["formal-factor", "--kernel", kernel_file, "--L", str(level)]
    return Job(cls, argv, 0, "ok", "formal_factor", {"rank": rank}, [kernel_file])


def formal_positivity_job(rng, cls, kernel_file, level, passed):
    argv = ["formal-positivity", "--kernel", kernel_file, "--L", str(level),
            "--seed", str(int(rng.integers(1 << 30)))]
    return Job(cls, argv, 0 if passed else 3, "ok" if passed else "certificate_failed",
               "formal_positivity", {"passed": passed}, [kernel_file])


def extract_job(rng, out, cls, d, degree, max_len):
    terms = random_series(rng, d, degree, 1, 1)
    fs = out.put(enc_series(d, terms))
    argv = ["extract-coeffs", "--series", fs, "--max-len", str(max_len)]
    want = {w: c for w, c in terms.items() if len(w) <= max_len}
    return Job(cls, argv, 0, "ok", "series", {"terms": want}, [fs])


def n_words(d, level):
    return len(words_up_to(d, level))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def functional_cert(rng, out):
    """Series evaluation, kernel block assembly and eigensolves; no nilpotency test."""
    d = 2
    h4 = random_series(rng, d, 4, 1, 2)      # scalar Kolmogorov factor, state dim 2
    kol4 = out.put(enc_kolmogorov(d, h4))
    kol5 = out.put(enc_kolmogorov(d, random_series(rng, d, 5, 1, 3)))
    basis = [random_series(rng, d, 3, 1, 1) for _ in range(3)]
    gram = out.put(enc_gram_basis(d, basis, random_pd(rng, 3)))
    sizes = (1, 2, 3, 4)
    # Class shares put p50 in the middle of the twelve 6- and 8-point
    # certificates of similar cost (31-72 % of the jobs) and p90 inside the
    # 16-point certificates (83-97 %), away from any boundary between
    # classes of different cost.
    jobs = [eval_job(rng, out, "eval-n8", d, 8, 2, 8) for _ in range(4)]
    jobs += [check_kernel_job(rng, "check-kernel", kernel, 2, (2, 3)) for kernel in (kol4, gram)]
    jobs.append(kolmogorov_job(rng, "kolmogorov-3pt", kol4, 3, (2, 3), 2))
    jobs += [eval_job(rng, out, "eval-n32", d, 8, 2, 32) for _ in range(2)]
    jobs += [cp_job(rng, "cp-kol4-8pt", kol4, 8, sizes, "gaussian", True) for _ in range(8)]
    jobs += [multiplier_job(rng, out, "multiplier-6pt", kol4, d, c, 6, (1, 2, 3)) for c in (0.5, 2.0)]
    jobs += [containment_job(rng, out, "containment-6pt", d, h4, t, 6, (1, 2, 3)) for t in (0.5, 2.0)]
    jobs += [cp_job(rng, "cp-gram-8pt", gram, 8, sizes, "gaussian", True) for _ in range(2)]
    jobs.append(kolmogorov_job(rng, "kolmogorov-4pt", kol4, 4, (2, 3), 2))
    jobs += [cp_job(rng, "cp-kol4-16pt", kol4, 16, sizes, "gaussian", True) for _ in range(4)]
    jobs.append(cp_job(rng, "cp-kol5-8pt", kol5, 8, sizes, "gaussian", True))
    warmup = eval_job(rng, out, "warmup", d, 3, 2, 4)
    return jobs, warmup


def nilpotent_formal(rng, out):
    """Joint-nilpotency enumeration, moment-kernel evaluation and formal factorization."""
    szego4 = out.put(enc_moments(2, szego_moments(2, 4), 4))
    factor4 = out.put(enc_moments(2, factor_moments(random_series(rng, 2, 4, 1, 2)), 4))
    indefinite = out.put(enc_moments(2, szego_moments(2, 4, empty_word=-1.0), 4))
    formal = {level: out.put(enc_moments(2, szego_moments(2, level), level, formal=True)) for level in (4, 5, 6)}
    formal_bad = out.put(enc_moments(2, szego_moments(2, 4, empty_word=-1.0), 4, formal=True))
    # p50 falls inside the eight moment-kernel certificates (45-72 % of the
    # jobs) and p90 inside the d=3, n=10 nilpotent evaluations (83-100 %).
    jobs = [extract_job(rng, out, f"extract-{max_len}", 2, 5, max_len) for max_len in (3, 4, 5)]
    jobs += [nilp_eval_job(rng, out, f"nilp-eval-d2-n{n}", 2, 6, n) for n in (8, 10, 12)]
    jobs += [nilp_eval_job(rng, out, f"nilp-eval-d3-n{n}", 3, 4, n) for n in (6, 8)]
    jobs.append(not_nilpotent_job(rng, out, "nilp-eval-gaussian", 2, 4, 12))
    jobs += [formal_factor_job(f"formal-factor-L{level}", level, formal[level], n_words(2, level))
             for level in (4, 5)]
    jobs.append(formal_positivity_job(rng, "formal-positivity", formal[4], 4, True))
    jobs.append(formal_positivity_job(rng, "formal-positivity", formal_bad, 4, False))
    sizes = (1, 2, 3, 4, 5)
    jobs += [cp_job(rng, "cp-szego", szego4, 8, sizes, "nilpotent", True, clamp=5) for _ in range(5)]
    jobs += [cp_job(rng, "cp-indefinite", indefinite, 8, sizes, "nilpotent", False, clamp=5)
             for _ in range(3)]
    jobs.append(formal_factor_job("formal-factor-L6", 6, formal[6], n_words(2, 6)))
    jobs.append(nilp_eval_job(rng, out, "nilp-eval-d2-n14", 2, 6, 14))
    jobs.append(cp_job(rng, "cp-factor", factor4, 4, (2, 3, 4, 5), "nilpotent", True, clamp=5))
    # d=3, n=10 is the largest nilpotent point the dense enumeration finishes
    # on a shared two-core machine (about 1 s and 170 MB)
    jobs += [nilp_eval_job(rng, out, "nilp-eval-d3-n10", 3, 4, 10) for _ in range(5)]
    warmup = nilp_eval_job(rng, out, "warmup", 2, 3, 4)
    return jobs, warmup


def cli_cold(rng, out):
    """Every subcommand at desk scale, plus one decode-heavy and five encode-heavy jobs."""
    d = 2
    h = random_series(rng, d, 2, 1, 2)
    kol = out.put(enc_kolmogorov(d, h))
    szego = out.put(enc_moments(1, szego_moments(1, 3), 3))
    indefinite = out.put(enc_moments(1, szego_moments(1, 3, empty_word=-1.0), 3))
    formal2 = out.put(enc_moments(1, szego_moments(1, 2), 2, formal=True))
    formal5 = out.put(enc_moments(2, szego_moments(2, 5), 5, formal=True))
    basis = [random_series(rng, d, 2, 1, 1) for _ in range(3)]
    gram_m = random_pd(rng, 3)
    model = out.put({"algebra": scalar_algebra(), "y_dim": 1,
                     "basis": [enc_series(d, f) for f in basis], "gram": enc_matrix(gram_m)})
    kraus = [cgauss(rng, 2, 2) for _ in range(2)]
    units = [[sum(a[:, [p]] @ a[:, [q]].conj().T for a in kraus) for q in range(2)] for p in range(2)]
    cpmap = out.put({"k": 2, "m": 2, "units": [[enc_matrix(u) for u in row] for row in units]})
    unit_norm = float(np.linalg.norm(sum(a @ a.conj().T for a in kraus), 2))
    ncfun = out.put(enc_series(d, random_series(rng, d, 2, 1, 1)))
    seed = lambda: str(int(rng.integers(1 << 30)))  # noqa: E731

    jobs = [
        eval_job(rng, out, "eval", d, 3, 1, 3),
        nilp_eval_job(rng, out, "nilp-eval", d, 3, 4),
        extract_job(rng, out, "extract-coeffs", d, 3, 3),
        Job("check-ncfun", ["check-ncfun", "--series", ncfun, "--seed", seed()], 0, "ok", "ncfun", {}, [ncfun]),
        check_kernel_job(rng, "check-kernel", kol, 2, (2, 3)),
        cp_job(rng, "cp-certify", szego, 4, (1, 2, 3), "nilpotent", True, clamp=4),
        kolmogorov_job(rng, "kolmogorov", kol, 2, (2, 3), 2),
        Job("kernel-from-basis", ["kernel-from-basis", "--model", model], 0, "ok", "gram",
            {"gram": gram_m}, [model]),
        Job("bergman", ["bergman", "--model", model], 0, "ok", "gram", {"gram": np.eye(3)}, [model]),
        multiplier_job(rng, out, "multiplier-check", kol, d, 0.5, 4, (1, 2, 3)),
        containment_job(rng, out, "containment", d, h, 0.5, 4, (1, 2, 3)),
        formal_factor_job("formal-factor", 2, formal2, n_words(1, 2)),
        formal_positivity_job(rng, "formal-positivity", formal2, 2, True),
    ]

    # lifted norm: values of a known state h0 at enough samples to pin it down
    state = cgauss(rng, 2, 1)[:, 0]
    samples = []
    for n in (1, 2, 2):
        point = nilpotent_point(rng, d, n)
        u = cgauss(rng, n, 1)
        hz = series_value(h, point)
        samples.append({"point": enc_point(point), "u": enc_matrix(u),
                        "value": enc_matrix((hz @ np.kron(u, np.eye(2)) @ state).reshape(-1, 1))})
    target = out.put({"samples": samples})
    jobs.append(Job("lifted-norm", ["lifted-norm", "--kernel", kol, "--target", target], 0, "ok", "scalar",
                    {"key": "norm", "value": float(np.linalg.norm(state))}, [kol, target]))

    u, _ = np.linalg.qr(cgauss(rng, 4, 4))
    v, _ = np.linalg.qr(cgauss(rng, 4, 4))
    contraction = out.put({"a": enc_matrix(u * np.array([0.9, 0.4, 0.0, 0.0]) @ v.conj().T)})
    jobs.append(Job("brangesian", ["brangesian", "--contraction", contraction, "--seed", seed()], 0, "ok",
                    "brangesian", {"operator_norm": 0.9, "m_rank": 2, "h_rank": 4}, [contraction]))
    jobs.append(Job("stinespring", ["stinespring", "--map", cpmap], 0, "ok", "stinespring",
                    {"r": len(kraus)}, [cpmap]))
    jobs.append(Job("cb-norm", ["cb-norm", "--map", cpmap, "--seed", seed()], 0, "ok", "cb_norm",
                    {"value": unit_norm}, [cpmap]))
    jobs.append(Job("effros-ruan", ["effros-ruan", "--map", cpmap, "--seed", seed()], 0, "ok", "scalar",
                    {"key": "lower_bound", "value": unit_norm}, [cpmap]))

    jobs.append(containment_job(rng, out, "containment-fail", d, h, 2.0, 4, (1, 2, 3)))
    jobs.append(cp_job(rng, "cp-certify-fail", indefinite, 4, (1, 2, 3), "nilpotent", False, clamp=4))
    # codec-heavy jobs: a large input with a small answer, and large answers.
    # They are the six slowest; p90 falls among the four formal-factor ones.
    jobs.append(eval_job(rng, out, "eval-decode-heavy", d, 8, 2, 2))
    jobs += [formal_factor_job("formal-factor-encode-heavy", 5, formal5, n_words(2, 5)) for _ in range(4)]
    jobs.append(kolmogorov_job(rng, "kolmogorov-encode-heavy", kol, 4, (3, 4), 2))
    warmup = eval_job(rng, out, "warmup", d, 2, 1, 2)
    return jobs, warmup


WORKLOAD_JOBS = {
    "functional-cert": functional_cert,
    "nilpotent-formal": nilpotent_formal,
    "cli-cold": cli_cold,
}


def build(workload: str, seed: int, root: str) -> tuple[list[Job], Job]:
    """The workload's job list, in a seed-shuffled order, and its warm-up job."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs, warmup = WORKLOAD_JOBS[workload](rng, Writer(root))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order], warmup
