"""Batch command-line surface: JSON in, one JSON document out, stable exit codes.

The exit code follows the payload's ``status`` through ``EXIT_CODES``.
Every randomized subcommand requires --seed; identical inputs and seed produce
byte-identical payloads (floats at 17 significant digits).  The human-readable
summary goes to stderr; stdout carries exactly one JSON document (or nothing
when --out redirects it to a file).

Positivity results are certificates over a seeded sample: a failure is a
reproducible disproof witness, a pass is evidence (complete only on nilpotent
domains with exhaustive truncation).

Each run is a fresh process that compiles what it imports, so the handlers
reach the library through lazy modules (:func:`_lazy`): a subcommand runs
only the modules it uses, for example ``eval`` only ``core``, ``series`` and
``serialize``.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import sys

import numpy as np

from .core import (
    DEFAULT_TOL,
    Infeasible,
    InputError,
    MatrixTuple,
    NcrkhsError,
    NotContraction,
    NotCp,
    NotPsd,
    Tolerances,
    check_positive,
    rel_err,
)
from .serialize import (
    _kernel_form,
    _series_form,
    _tuple_form,
    decode_cp_map,
    decode_formal_kernel,
    decode_kernel,
    decode_matrix,
    decode_model,
    decode_objects,
    decode_series,
    decode_tuple,
    dumps_canonical,
)

EXIT_CODES = {"ok": 0, "input_error": 2, "certificate_failed": 3, "infeasible": 4}


def _lazy(name: str):
    """The module ``ncrkhs.<name>``, entered in ``sys.modules`` now and run at its first attribute access.

    A subcommand thus reads and runs only the modules it uses, while every
    module a subcommand may use can be found in ``sys.modules`` from the start.
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[full] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cpmaps, formal, kernels, multipliers, rkhs, sampling, series = map(
    _lazy, ("cpmaps", "formal", "kernels", "multipliers", "rkhs", "sampling", "series"))


def _load(path: str, where: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"{where}: file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _certificate_payload(cert) -> dict:
    payload = {
        "passed": bool(cert.passed),
        "min_eig": float(cert.min_eig),
        "seed": cert.seed,
        "sample": cert.sample_description,
    }
    if not cert.passed:
        # reproducible witness: the sampled points and the offending direction
        if cert.points:
            payload["witness_points"] = [_tuple_form(z, np.asarray) for z in cert.points]
        if cert.witness is not None:
            payload["witness_vector"] = cert.witness  # a 1-D array, rendered as a column
    return payload


def _certificate_result(cert) -> dict:
    """A certificate as a handler result: its status followed by its payload."""
    return {"status": "ok" if cert.passed else "certificate_failed", **_certificate_payload(cert)}


def _sizes(args) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in args.sizes.split(","))
    except ValueError as exc:
        raise InputError(f"--sizes: expected comma-separated integers, got {args.sizes!r}") from exc


def _at_least(value: int, low: int, option: str) -> int:
    if value < low:
        raise InputError(f"{option}: expected an integer >= {low}, got {value}")
    return value


# ---------------------------------------------------------------------------
# handlers: each returns its payload, whose "status" decides the exit code
# ---------------------------------------------------------------------------

def _cmd_eval(args, tol):
    f = decode_series(_load(args.series, "series"), "series")
    z = decode_tuple(_load(args.point, "point"), "point")
    return {"status": "ok", "value": series.evaluate(f, z)}


def _cmd_nilp_eval(args, tol):
    f = decode_series(_load(args.series, "series"), "series")
    z = decode_tuple(_load(args.point, "point"), "point")
    return {"status": "ok", "value": series.evaluate_on_nilpotent(f, z, tol)}


def _cmd_extract_coeffs(args, tol):
    f = decode_series(_load(args.series, "series"), "series")
    got = series.extract_taylor_coefficients(
        series.functional_evaluator(f, tol), f.d, args.max_len, f.out_dim, f.in_dim, tol
    )
    return {"status": "ok", "series": _series_form(got, np.asarray)}


def _cmd_check_ncfun(args, tol):
    f = decode_series(_load(args.series, "series"), "series")
    check_positive(args.samples, "sample")
    max_size = _at_least(args.max_size, 1, "--max-size")
    rng = sampling.rng_from_seed(args.seed)
    pairs = []
    triples = []
    for _ in range(args.samples):
        n = int(rng.integers(1, max_size + 1))
        m = int(rng.integers(1, max_size + 1))
        z = sampling.sample_tuple(rng, args.sampler, f.d, n)
        w = sampling.sample_tuple(rng, args.sampler, f.d, m)
        pairs.append((z, w))
        s = sampling.random_similarity(rng, n)
        zt = MatrixTuple(tuple(s @ c @ np.linalg.inv(s) for c in z.coords))
        triples.append((z, zt, s))
    ds = series.check_respects_direct_sums(f, pairs, tol)
    tw = series.check_respects_intertwinings(f, triples, tol)
    return {
        "status": "ok" if (ds.passed and tw.passed) else "certificate_failed",
        "seed": args.seed,
        "direct_sums": {"passed": ds.passed, "max_violation": ds.max_violation},
        "intertwinings": {"passed": tw.passed, "max_violation": tw.max_violation},
    }


def _cmd_check_kernel(args, tol):
    kernel = decode_kernel(_load(args.kernel, "kernel"), "kernel", tol)
    samples = kernels.draw_kernel_axiom_samples(
        kernel, sampling.rng_from_seed(args.seed), n_samples=args.samples, sizes=_sizes(args),
        sampler=args.sampler,
    )
    report = kernels.check_kernel_axioms(kernel, samples, tol)
    return {
        "status": "ok" if report.passed else "certificate_failed",
        "seed": args.seed,
        "passed": report.passed,
        "max_violation": report.max_violation,
        "threshold": report.threshold,
    }


def _cmd_cp_certify(args, tol):
    kernel = decode_kernel(_load(args.kernel, "kernel"), "kernel", tol)
    check_positive(args.rows, "row")
    if args.reduced:
        cert = kernels.cp_certificate_similarity_reduced(
            kernel, n_points=args.points, sizes=_sizes(args), seed=args.seed, tol=tol,
            sampler=args.sampler,
        )
    else:
        cert = kernels.cp_certificate(
            kernel, n_points=args.points, sizes=_sizes(args), n_rows=args.rows,
            seed=args.seed, tol=tol, sampler=args.sampler,
        )
    return _certificate_result(cert)


def _cmd_kolmogorov(args, tol):
    kernel = decode_kernel(_load(args.kernel, "kernel"), "kernel", tol)
    _, points = kernels.sample_points(kernel, sampling.rng_from_seed(args.seed), args.points, _sizes(args),
                                      sampling.NILPOTENT)
    sample = kernels.kolmogorov_at_sample(kernel, points, tol)
    return {
        "status": "ok",
        "seed": args.seed,
        "rank": sample.rank,
        "gram_error": sample.gram_error,
        "points": [_tuple_form(z, np.asarray) for z in sample.points],
        "factors": sample.factors,
    }


def _cmd_kernel_from_basis(args, tol):
    model = decode_model(_load(args.model, "model"), "model", tol)
    return {"status": "ok", "kernel": _kernel_form(model.kernel(), np.asarray)}


def _cmd_bergman(args, tol):
    model = decode_model(_load(args.model, "model"), "model", tol)
    return {"status": "ok", "kernel": _kernel_form(rkhs.bergman_kernel(model), np.asarray)}


def _cmd_lifted_norm(args, tol):
    kernel = decode_kernel(_load(args.kernel, "kernel"), "kernel", tol)
    if not isinstance(kernel, kernels.KolmogorovKernel):
        raise InputError("lifted-norm needs a kernel in kolmogorov form")
    data = _load(args.target, "target")
    if not isinstance(data, dict) or "samples" not in data:
        raise InputError("target: expected an object with a 'samples' array")
    targets = []
    for i, item in enumerate(decode_objects(data["samples"], "target.samples")):
        z = decode_tuple(item.get("point"), f"target.samples[{i}].point")
        u = decode_matrix(item.get("u"), f"target.samples[{i}].u")
        value = decode_matrix(item.get("value"), f"target.samples[{i}].value").reshape(-1)
        targets.append((z, u, value))
    return {"status": "ok", "norm": rkhs.lifted_norm(kernel, targets, tol)}


def _cmd_multiplier_check(args, tol):
    source = decode_kernel(_load(args.source, "source"), "source", tol)
    target = decode_kernel(_load(args.target, "target"), "target", tol)
    s = decode_series(_load(args.s, "s"), "s")
    mult = multipliers.Multiplier(s, source, target)
    cert = multipliers.contractivity_certificate(
        mult, n_points=args.points, sizes=_sizes(args), n_rows=args.rows, seed=args.seed, tol=tol,
        sampler=args.sampler,
    )
    return _certificate_result(cert)


def _cmd_brangesian(args, tol):
    vectors, splits = _at_least(args.vectors, 0, "--vectors"), _at_least(args.splits, 0, "--splits")
    data = _load(args.contraction, "contraction")
    if not isinstance(data, dict) or "a" not in data:
        raise InputError("contraction: expected an object with field 'a'")
    a = decode_matrix(data["a"], "contraction.a")
    gram_src = decode_matrix(data["gram_src"], "contraction.gram_src") if "gram_src" in data else None
    gram_tgt = decode_matrix(data["gram_tgt"], "contraction.gram_tgt") if "gram_tgt" in data else None
    dec = multipliers.brangesian_complement(a, gram_src, gram_tgt, tol)
    rng = sampling.rng_from_seed(args.seed)
    n = a.shape[0]

    identity_violation = 0.0
    margin = 0.0
    overlap = dec.feasible_perturbation_basis()
    for _ in range(vectors):
        h = sampling.complex_gaussian(rng, n, 1)[:, 0]
        k_part, h_part = dec.decompose(h)
        cost = dec.split_cost(k_part, h_part)
        identity_violation = max(identity_violation, rel_err(abs(cost - dec.ambient_norm(h) ** 2), cost))
        if overlap.shape[1]:
            for _ in range(splits):
                delta = overlap @ sampling.complex_gaussian(rng, overlap.shape[1], 1)[:, 0] * 0.3
                margin = min(margin, dec.split_cost(k_part + delta, h_part - delta) - cost)
    return {
        "status": "ok",
        "seed": args.seed,
        "operator_norm": dec.operator_norm,
        "m_rank": int(dec.m_range_basis.shape[1]),
        "h_rank": int(dec.h_range_basis.shape[1]),
        "norm_identity_max_violation": identity_violation,
        "min_split_margin": margin,
    }


def _cmd_containment(args, tol):
    kprime = decode_kernel(_load(args.kprime, "kprime"), "kprime", tol)
    kernel = decode_kernel(_load(args.k, "k"), "k", tol)
    cert, _ = multipliers.contractive_containment(
        kprime, kernel, n_points=args.points, sizes=_sizes(args), n_rows=args.rows,
        seed=args.seed, tol=tol, sampler=args.sampler,
    )
    return _certificate_result(cert)


def _cmd_formal_factor(args, tol):
    kernel = decode_formal_kernel(_load(args.kernel, "kernel"), "kernel", tol)
    fact = formal.formal_kolmogorov_truncated(kernel, args.level, tol)
    return {
        "status": "ok",
        "rank": fact.rank,
        "reconstruction_error": fact.reconstruction_error,
        "h": _series_form(fact.h, np.asarray),
    }


def _cmd_formal_positivity(args, tol):
    kernel = decode_formal_kernel(_load(args.kernel, "kernel"), "kernel", tol)
    passed_m, min_eig_m = formal.is_formal_positive_truncated(kernel, args.level, tol)
    cert = formal.nilpotent_positivity_check(kernel, seed=args.seed, tol=tol)
    return {
        "status": "ok" if (passed_m and cert.passed) else "certificate_failed",
        "seed": args.seed,
        "moment_route": {"passed": passed_m, "min_eig": min_eig_m, "level": args.level},
        "nilpotent_route": _certificate_payload(cert),
        "routes_agree": bool(passed_m == cert.passed),
    }


def _cmd_stinespring(args, tol):
    phi = decode_cp_map(_load(args.map, "map"), "map", tol)
    dilation = cpmaps.stinespring(phi, tol)
    return {
        "status": "ok",
        "r": dilation.r,
        "x_dim": dilation.x_dim,
        "h": dilation.h,
        "reconstruction_error": dilation.reconstruction_error,
    }


def _cmd_cb_norm(args, tol):
    samples = _at_least(args.samples, 0, "--samples")
    phi = decode_cp_map(_load(args.map, "map"), "map", tol)
    norm = cpmaps.cb_norm_cp(phi, tol)
    rng = sampling.rng_from_seed(args.seed)
    ratio = 0.0
    for _ in range(samples):
        p = sampling.random_psd(rng, int(rng.integers(1, cpmaps.MAX_AMP + 1)) * phi.k)
        top = np.linalg.norm(p, 2)
        if top > 0:
            ratio = max(ratio, float(np.linalg.norm(phi.apply_amplified(p / top), 2)))
    return {"status": "ok", "seed": args.seed, "cb_norm": norm, "max_amplified_ratio": ratio}


def _cmd_effros_ruan(args, tol):
    samples = _at_least(args.samples, 0, "--samples")
    phi = decode_cp_map(_load(args.map, "map"), "map", tol)
    bound = cpmaps.effros_ruan_lower_bound(phi, n_samples=samples, seed=args.seed)
    return {"status": "ok", "seed": args.seed, "lower_bound": bound}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _command(subs, name, handler, help, files, seed=True, sampling=False):
    """Declare a subcommand: its required --<file> inputs, the shared options and its handler.

    ``sampling`` adds the --points/--sizes/--rows/--sampler group; ``seed``
    makes --seed mandatory.  The caller adds the subcommand's own options.
    """
    sub = subs.add_parser(name, help=help)
    for file in files:
        sub.add_argument(f"--{file}", required=True)
    if sampling:
        sub.add_argument("--points", type=int, default=4)
        sub.add_argument("--sizes", default="1,2,3", help="comma-separated point sizes")
        sub.add_argument("--rows", type=int, default=2)
        sub.add_argument("--sampler", choices=["auto", "nilpotent", "gaussian"], default="auto")
    sub.add_argument("--tol-eq", type=float, default=DEFAULT_TOL.eq_rel, help="relative equality threshold")
    sub.add_argument("--tol-psd", type=float, default=DEFAULT_TOL.psd_floor, help="relative PSD floor")
    sub.add_argument("--out", default=None, help="write the JSON payload to this file")
    if seed:
        sub.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    sub.set_defaults(handler=handler)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncrkhs",
        description="nc kernel and RKHS certification toolbox (JSON in, JSON out)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _command(subs, "eval", _cmd_eval, "evaluate a series at a matrix tuple", ["series", "point"], seed=False)
    _command(subs, "nilp-eval", _cmd_nilp_eval, "exact evaluation on a jointly nilpotent tuple",
             ["series", "point"], seed=False)
    sub = _command(subs, "extract-coeffs", _cmd_extract_coeffs, "recover coefficients from nilpotent evaluations",
                   ["series"], seed=False)
    sub.add_argument("--max-len", type=int, default=3, dest="max_len")

    sub = _command(subs, "check-ncfun", _cmd_check_ncfun, "direct-sum and intertwining checks for a series",
                   ["series"])
    sub.add_argument("--samples", type=int, default=5)
    sub.add_argument("--max-size", type=int, default=3, dest="max_size")
    sub.add_argument("--sampler", choices=["nilpotent", "gaussian"], default="gaussian")

    sub = _command(subs, "check-kernel", _cmd_check_kernel, "Hermitian/direct-sum/intertwining kernel axioms",
                   ["kernel"])
    sub.add_argument("--samples", type=int, default=3)
    sub.add_argument("--sizes", default="2,3")
    sub.add_argument("--sampler", choices=["auto", "nilpotent", "gaussian"], default="auto")

    sub = _command(subs, "cp-certify", _cmd_cp_certify, "sampled complete-positivity certificate", ["kernel"],
                   sampling=True)
    sub.add_argument("--reduced", action="store_true", help="similarity-reduced diagonal test (ignores --rows)")

    sub = _command(subs, "kolmogorov", _cmd_kolmogorov, "finite-sample Kolmogorov factorization", ["kernel"])
    sub.add_argument("--points", type=int, default=2)
    sub.add_argument("--sizes", default="2,3")

    _command(subs, "kernel-from-basis", _cmd_kernel_from_basis, "emit the kernel induced by an RKHS model",
             ["model"], seed=False)
    _command(subs, "bergman", _cmd_bergman, "orthonormalize a model and emit its Bergman kernel", ["model"],
             seed=False)
    _command(subs, "lifted-norm", _cmd_lifted_norm, "minimum-norm state matching sampled values",
             ["kernel", "target"], seed=False)
    _command(subs, "multiplier-check", _cmd_multiplier_check, "contractive-multiplier certificate",
             ["source", "target", "s"], sampling=True)

    sub = _command(subs, "brangesian", _cmd_brangesian, "Brangesian complement diagnostics of a contraction",
                   ["contraction"])
    sub.add_argument("--vectors", type=int, default=20)
    sub.add_argument("--splits", type=int, default=50)

    _command(subs, "containment", _cmd_containment, "contractive containment of H(K') in H(K)", ["kprime", "k"],
             sampling=True)
    sub = _command(subs, "formal-factor", _cmd_formal_factor, "truncated Kolmogorov factor of a formal kernel",
                   ["kernel"], seed=False)
    sub.add_argument("--L", type=int, required=True, dest="level")
    sub = _command(subs, "formal-positivity", _cmd_formal_positivity,
                   "moment-matrix and nilpotent-point positivity", ["kernel"])
    sub.add_argument("--L", type=int, required=True, dest="level")

    _command(subs, "stinespring", _cmd_stinespring, "Stinespring dilation of a cp map", ["map"], seed=False)
    sub = _command(subs, "cb-norm", _cmd_cb_norm, "cb norm of a cp map with sampled amplifications", ["map"])
    sub.add_argument("--samples", type=int, default=10)
    sub = _command(subs, "effros-ruan", _cmd_effros_ruan, "sampled lower bound on the cb norm", ["map"])
    sub.add_argument("--samples", type=int, default=30)
    return parser


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _outcome(args) -> tuple[str, str, int]:
    """The payload text, status and exit code of a run; library errors become typed payloads.

    A payload that cannot be encoded, because a value in it (a result, or an
    error's ``min_eig`` or ``residual``) overflowed to NaN or Infinity, which
    JSON cannot carry, is an input error too, and so is an allocation refused
    for its size (a :class:`MemoryError`, with numpy's message where numpy
    raised it): the input asks for more memory than the process has.
    numpy's overflow and invalid warnings are silenced while the handler
    runs: the finiteness checks that follow such an overflow raise
    :class:`InputError`, so the warning adds only noise on stderr.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            payload = args.handler(args, Tolerances(eq_rel=args.tol_eq, psd_floor=args.tol_psd))
    except (NotCp, NotPsd, NotContraction) as err:
        payload = {"status": "certificate_failed", "error": str(err)}
        if isinstance(err, (NotCp, NotPsd)):
            payload["min_eig"] = err.min_eig
    except Infeasible as err:
        payload = {"status": "infeasible", "error": str(err), "residual": err.residual}
    except (NcrkhsError, MemoryError) as err:
        payload = {"status": "input_error", "error": str(err) or "out of memory"}
    try:
        text = dumps_canonical(payload)
    except InputError as err:
        payload = {"status": "input_error", "error": str(err)}
        text = dumps_canonical(payload)
    return text, payload["status"], EXIT_CODES[payload["status"]]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process and shared by every later one.

    Parsing leaves it unchanged and gives each call a fresh namespace.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    text, status, code = _outcome(args)
    _emit(text, args)
    print(f"ncrkhs {args.command}: {status}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
