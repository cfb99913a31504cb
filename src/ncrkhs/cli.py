"""Batch command-line surface: JSON in, one JSON document out, stable exit codes.

Exit codes: 0 = ok, 2 = malformed input, 3 = failed certificate, 4 = infeasible.
Every randomized subcommand requires --seed; identical inputs and seed produce
byte-identical payloads (floats at 17 significant digits).  The human-readable
summary goes to stderr; stdout carries exactly one JSON document (or nothing
when --out redirects it to a file).

Positivity results are certificates over a seeded sample: a failure is a
reproducible disproof witness, a pass is evidence (complete only on nilpotent
domains with exhaustive truncation).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cpmaps, formal, kernels, multipliers, rkhs, series
from .core import (
    DEFAULT_TOL,
    DimMismatch,
    Infeasible,
    InputError,
    LetterOutOfRange,
    MatrixTuple,
    NcrkhsError,
    NonSquare,
    NotContraction,
    NotCp,
    NotInTarget,
    NotNilpotent,
    NotPsd,
    SamplerUnavailable,
    ShapeMismatch,
    Tolerances,
    TruncationRefused,
    TruncationTooShort,
)
from .sampling import (
    complex_gaussian,
    nilpotent_tuple,
    random_psd,
    random_similarity,
    rng_from_seed,
    sample_tuple,
)
from .serialize import (
    decode_cp_map,
    decode_formal_kernel,
    decode_kernel,
    decode_matrix,
    decode_model,
    decode_objects,
    decode_series,
    decode_tuple,
    dumps_canonical,
    encode_kernel,
    encode_matrix,
    encode_series,
    encode_tuple,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CERT = 3
EXIT_INFEASIBLE = 4

_INPUT_ERRORS = (
    InputError,
    DimMismatch,
    ShapeMismatch,
    LetterOutOfRange,
    NonSquare,
    NotNilpotent,
    TruncationRefused,
    TruncationTooShort,
    SamplerUnavailable,
    NotInTarget,
)


def _load(path: str, where: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"{where}: file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _tolerances(args) -> Tolerances:
    return Tolerances(eq_rel=args.tol_eq, psd_floor=args.tol_psd)


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
            payload["witness_points"] = [encode_tuple(z) for z in cert.points]
        if cert.witness is not None:
            payload["witness_vector"] = encode_matrix(np.asarray(cert.witness).reshape(-1, 1))
    return payload


def _certificate_result(cert) -> tuple[dict, int]:
    """A certificate as a handler result: the status, its payload and the exit code."""
    payload = {"status": "ok" if cert.passed else "certificate_failed"}
    payload.update(_certificate_payload(cert))
    return payload, EXIT_OK if cert.passed else EXIT_CERT


def _sizes(args) -> tuple[int, ...]:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError as exc:
        raise InputError(f"--sizes: expected comma-separated integers, got {args.sizes!r}") from exc
    if not sizes or any(s < 1 for s in sizes):
        raise InputError("--sizes: sizes must be positive")
    return sizes


# ---------------------------------------------------------------------------
# handlers: each returns (payload, exit_code)
# ---------------------------------------------------------------------------

def _cmd_eval(args, tol):
    f = decode_series(_load(args.series, "series"), "series")
    z = decode_tuple(_load(args.point, "point"), "point")
    value = series.evaluate(f, z)
    return {"status": "ok", "value": encode_matrix(value)}, EXIT_OK


def _cmd_nilp_eval(args, tol):
    f = decode_series(_load(args.series, "series"), "series")
    z = decode_tuple(_load(args.point, "point"), "point")
    value = series.evaluate_on_nilpotent(f, z, tol)
    return {"status": "ok", "value": encode_matrix(value)}, EXIT_OK


def _cmd_extract_coeffs(args, tol):
    f = decode_series(_load(args.series, "series"), "series")
    got = series.extract_taylor_coefficients(
        series.functional_evaluator(f, tol), f.d, args.max_len, f.out_dim, f.in_dim, tol
    )
    return {"status": "ok", "series": encode_series(got)}, EXIT_OK


def _cmd_check_ncfun(args, tol):
    f = decode_series(_load(args.series, "series"), "series")
    kernels._check_positive(args.samples, "sample")
    rng = rng_from_seed(args.seed)
    pairs = []
    triples = []
    for _ in range(args.samples):
        n = int(rng.integers(1, args.max_size + 1))
        m = int(rng.integers(1, args.max_size + 1))
        z = sample_tuple(rng, args.sampler, f.d, n)
        w = sample_tuple(rng, args.sampler, f.d, m)
        pairs.append((z, w))
        s = random_similarity(rng, n, tol=tol)
        zt = MatrixTuple(tuple(s @ c @ np.linalg.inv(s) for c in z.coords))
        triples.append((z, zt, s))
    ds = series.check_respects_direct_sums(f, pairs, tol)
    tw = series.check_respects_intertwinings(f, triples, tol)
    payload = {
        "status": "ok" if (ds.passed and tw.passed) else "certificate_failed",
        "seed": args.seed,
        "direct_sums": {"passed": ds.passed, "max_violation": ds.max_violation},
        "intertwinings": {"passed": tw.passed, "max_violation": tw.max_violation},
    }
    return payload, EXIT_OK if (ds.passed and tw.passed) else EXIT_CERT


def _cmd_check_kernel(args, tol):
    kernel = decode_kernel(_load(args.kernel, "kernel"), "kernel", tol)
    samples = kernels.draw_kernel_axiom_samples(
        kernel, rng_from_seed(args.seed), n_samples=args.samples, sizes=_sizes(args),
        sampler=args.sampler, tol=tol,
    )
    report = kernels.check_kernel_axioms(kernel, samples, tol)
    payload = {
        "status": "ok" if report.passed else "certificate_failed",
        "seed": args.seed,
        "passed": report.passed,
        "max_violation": report.max_violation,
        "threshold": report.threshold,
    }
    return payload, EXIT_OK if report.passed else EXIT_CERT


def _cmd_cp_certify(args, tol):
    kernel = decode_kernel(_load(args.kernel, "kernel"), "kernel", tol)
    kernels._check_positive(args.rows, "row")
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
    rng = rng_from_seed(args.seed)
    sizes = kernels._clamp_sizes(kernel, "nilpotent", _sizes(args))
    points = [nilpotent_tuple(rng, kernel.d, sizes[i % len(sizes)]) for i in range(args.points)]
    sample = kernels.kolmogorov_at_sample(kernel, points, tol)
    payload = {
        "status": "ok",
        "seed": args.seed,
        "rank": sample.rank,
        "gram_error": sample.gram_error,
        "points": [encode_tuple(z) for z in sample.points],
        "factors": [encode_matrix(h) for h in sample.factors],
    }
    return payload, EXIT_OK


def _cmd_kernel_from_basis(args, tol):
    model = decode_model(_load(args.model, "model"), "model", tol)
    return {"status": "ok", "kernel": encode_kernel(model.kernel())}, EXIT_OK


def _cmd_bergman(args, tol):
    model = decode_model(_load(args.model, "model"), "model", tol)
    kernel = rkhs.bergman_kernel(model)
    return {"status": "ok", "kernel": encode_kernel(kernel)}, EXIT_OK


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
    norm = rkhs.lifted_norm(kernel, targets, tol)
    return {"status": "ok", "norm": norm}, EXIT_OK


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
    data = _load(args.contraction, "contraction")
    if not isinstance(data, dict) or "a" not in data:
        raise InputError("contraction: expected an object with field 'a'")
    a = decode_matrix(data["a"], "contraction.a")
    gram_src = decode_matrix(data["gram_src"], "contraction.gram_src") if "gram_src" in data else None
    gram_tgt = decode_matrix(data["gram_tgt"], "contraction.gram_tgt") if "gram_tgt" in data else None
    dec = multipliers.brangesian_complement(a, gram_src, gram_tgt, tol)
    rng = rng_from_seed(args.seed)
    n = a.shape[0]

    identity_violation = 0.0
    margin = 0.0
    overlap = dec.feasible_perturbation_basis()
    for _ in range(args.vectors):
        h = complex_gaussian(rng, n, 1)[:, 0]
        k_part, h_part = dec.decompose(h)
        cost = dec.split_cost(k_part, h_part)
        identity_violation = max(
            identity_violation, abs(cost - dec.ambient_norm(h) ** 2) / max(1.0, cost)
        )
        if overlap.shape[1]:
            for _ in range(args.splits):
                delta = overlap @ complex_gaussian(rng, overlap.shape[1], 1)[:, 0] * 0.3
                margin = min(margin, dec.split_cost(k_part + delta, h_part - delta) - cost)
    payload = {
        "status": "ok",
        "seed": args.seed,
        "operator_norm": dec.operator_norm,
        "m_rank": int(dec.m_range_basis.shape[1]),
        "h_rank": int(dec.h_range_basis.shape[1]),
        "norm_identity_max_violation": identity_violation,
        "min_split_margin": margin,
    }
    return payload, EXIT_OK


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
    payload = {
        "status": "ok",
        "rank": fact.rank,
        "reconstruction_error": fact.reconstruction_error,
        "h": encode_series(fact.h),
    }
    return payload, EXIT_OK


def _cmd_formal_positivity(args, tol):
    kernel = decode_formal_kernel(_load(args.kernel, "kernel"), "kernel", tol)
    passed_m, min_eig_m = formal.is_formal_positive_truncated(kernel, args.level, tol)
    cert = formal.nilpotent_positivity_check(kernel, seed=args.seed, tol=tol)
    agree = bool(passed_m == cert.passed)
    ok = bool(passed_m and cert.passed)
    payload = {
        "status": "ok" if ok else "certificate_failed",
        "seed": args.seed,
        "moment_route": {"passed": passed_m, "min_eig": min_eig_m, "level": args.level},
        "nilpotent_route": _certificate_payload(cert),
        "routes_agree": agree,
    }
    return payload, EXIT_OK if ok else EXIT_CERT


def _cmd_stinespring(args, tol):
    phi = decode_cp_map(_load(args.map, "map"), "map", tol)
    dilation = cpmaps.stinespring(phi, tol)
    payload = {
        "status": "ok",
        "r": dilation.r,
        "x_dim": dilation.x_dim,
        "h": encode_matrix(dilation.h),
        "reconstruction_error": dilation.reconstruction_error,
    }
    return payload, EXIT_OK


def _cmd_cb_norm(args, tol):
    phi = decode_cp_map(_load(args.map, "map"), "map", tol)
    norm = cpmaps.cb_norm_cp(phi, tol)
    rng = rng_from_seed(args.seed)
    ratio = 0.0
    for _ in range(args.samples):
        p = random_psd(rng, int(rng.integers(1, cpmaps.MAX_AMP + 1)) * phi.k)
        top = np.linalg.norm(p, 2)
        if top > 0:
            ratio = max(ratio, float(np.linalg.norm(phi.apply_amplified(p / top), 2)))
    payload = {"status": "ok", "seed": args.seed, "cb_norm": norm, "max_amplified_ratio": ratio}
    return payload, EXIT_OK


def _cmd_effros_ruan(args, tol):
    phi = decode_cp_map(_load(args.map, "map"), "map", tol)
    bound = cpmaps.effros_ruan_lower_bound(phi, n_samples=args.samples, seed=args.seed)
    return {"status": "ok", "seed": args.seed, "lower_bound": bound}, EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, seed_required: bool):
    sub.add_argument("--tol-eq", type=float, default=DEFAULT_TOL.eq_rel, help="relative equality threshold")
    sub.add_argument("--tol-psd", type=float, default=DEFAULT_TOL.psd_floor, help="relative PSD floor")
    sub.add_argument("--out", default=None, help="write the JSON payload to this file")
    if seed_required:
        sub.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")


def _add_sampling(sub):
    sub.add_argument("--points", type=int, default=4)
    sub.add_argument("--sizes", default="1,2,3", help="comma-separated point sizes")
    sub.add_argument("--rows", type=int, default=2)
    sub.add_argument("--sampler", choices=["auto", "nilpotent", "gaussian"], default="auto")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncrkhs",
        description="nc kernel and RKHS certification toolbox (JSON in, JSON out)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("eval", help="evaluate a series at a matrix tuple")
    sub.add_argument("--series", required=True)
    sub.add_argument("--point", required=True)
    _add_common(sub, seed_required=False)
    sub.set_defaults(handler=_cmd_eval)

    sub = subs.add_parser("nilp-eval", help="exact evaluation on a jointly nilpotent tuple")
    sub.add_argument("--series", required=True)
    sub.add_argument("--point", required=True)
    _add_common(sub, seed_required=False)
    sub.set_defaults(handler=_cmd_nilp_eval)

    sub = subs.add_parser("extract-coeffs", help="recover coefficients from nilpotent evaluations")
    sub.add_argument("--series", required=True)
    sub.add_argument("--max-len", type=int, default=3, dest="max_len")
    _add_common(sub, seed_required=False)
    sub.set_defaults(handler=_cmd_extract_coeffs)

    sub = subs.add_parser("check-ncfun", help="direct-sum and intertwining checks for a series")
    sub.add_argument("--series", required=True)
    sub.add_argument("--samples", type=int, default=5)
    sub.add_argument("--max-size", type=int, default=3, dest="max_size")
    sub.add_argument("--sampler", choices=["nilpotent", "gaussian"], default="gaussian")
    _add_common(sub, seed_required=True)
    sub.set_defaults(handler=_cmd_check_ncfun)

    sub = subs.add_parser("check-kernel", help="Hermitian/direct-sum/intertwining kernel axioms")
    sub.add_argument("--kernel", required=True)
    sub.add_argument("--samples", type=int, default=3)
    sub.add_argument("--sizes", default="2,3")
    sub.add_argument("--sampler", choices=["auto", "nilpotent", "gaussian"], default="auto")
    _add_common(sub, seed_required=True)
    sub.set_defaults(handler=_cmd_check_kernel)

    sub = subs.add_parser("cp-certify", help="sampled complete-positivity certificate")
    sub.add_argument("--kernel", required=True)
    sub.add_argument("--reduced", action="store_true", help="similarity-reduced diagonal test (ignores --rows)")
    _add_sampling(sub)
    _add_common(sub, seed_required=True)
    sub.set_defaults(handler=_cmd_cp_certify)

    sub = subs.add_parser("kolmogorov", help="finite-sample Kolmogorov factorization")
    sub.add_argument("--kernel", required=True)
    sub.add_argument("--points", type=int, default=2)
    sub.add_argument("--sizes", default="2,3")
    _add_common(sub, seed_required=True)
    sub.set_defaults(handler=_cmd_kolmogorov)

    sub = subs.add_parser("kernel-from-basis", help="emit the kernel induced by an RKHS model")
    sub.add_argument("--model", required=True)
    _add_common(sub, seed_required=False)
    sub.set_defaults(handler=_cmd_kernel_from_basis)

    sub = subs.add_parser("bergman", help="orthonormalize a model and emit its Bergman kernel")
    sub.add_argument("--model", required=True)
    _add_common(sub, seed_required=False)
    sub.set_defaults(handler=_cmd_bergman)

    sub = subs.add_parser("lifted-norm", help="minimum-norm state matching sampled values")
    sub.add_argument("--kernel", required=True)
    sub.add_argument("--target", required=True)
    _add_common(sub, seed_required=False)
    sub.set_defaults(handler=_cmd_lifted_norm)

    sub = subs.add_parser("multiplier-check", help="contractive-multiplier certificate")
    sub.add_argument("--source", required=True)
    sub.add_argument("--target", required=True)
    sub.add_argument("--s", required=True)
    _add_sampling(sub)
    _add_common(sub, seed_required=True)
    sub.set_defaults(handler=_cmd_multiplier_check)

    sub = subs.add_parser("brangesian", help="Brangesian complement diagnostics of a contraction")
    sub.add_argument("--contraction", required=True)
    sub.add_argument("--vectors", type=int, default=20)
    sub.add_argument("--splits", type=int, default=50)
    _add_common(sub, seed_required=True)
    sub.set_defaults(handler=_cmd_brangesian)

    sub = subs.add_parser("containment", help="contractive containment of H(K') in H(K)")
    sub.add_argument("--kprime", required=True)
    sub.add_argument("--k", required=True)
    _add_sampling(sub)
    _add_common(sub, seed_required=True)
    sub.set_defaults(handler=_cmd_containment)

    sub = subs.add_parser("formal-factor", help="truncated Kolmogorov factor of a formal kernel")
    sub.add_argument("--kernel", required=True)
    sub.add_argument("--L", type=int, required=True, dest="level")
    _add_common(sub, seed_required=False)
    sub.set_defaults(handler=_cmd_formal_factor)

    sub = subs.add_parser("formal-positivity", help="moment-matrix and nilpotent-point positivity")
    sub.add_argument("--kernel", required=True)
    sub.add_argument("--L", type=int, required=True, dest="level")
    _add_common(sub, seed_required=True)
    sub.set_defaults(handler=_cmd_formal_positivity)

    sub = subs.add_parser("stinespring", help="Stinespring dilation of a cp map")
    sub.add_argument("--map", required=True)
    _add_common(sub, seed_required=False)
    sub.set_defaults(handler=_cmd_stinespring)

    sub = subs.add_parser("cb-norm", help="cb norm of a cp map with sampled amplifications")
    sub.add_argument("--map", required=True)
    sub.add_argument("--samples", type=int, default=10)
    _add_common(sub, seed_required=True)
    sub.set_defaults(handler=_cmd_cb_norm)

    sub = subs.add_parser("effros-ruan", help="sampled lower bound on the cb norm")
    sub.add_argument("--map", required=True)
    sub.add_argument("--samples", type=int, default=30)
    _add_common(sub, seed_required=True)
    sub.set_defaults(handler=_cmd_effros_ruan)

    return parser


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _outcome(args) -> tuple[str, str, int]:
    """The payload text, status and exit code of a run; library errors become typed payloads.

    The payload is encoded inside the ``try``, so a value that overflowed to
    NaN or Infinity (which JSON cannot carry) is an input error too.
    """
    try:
        payload, code = args.handler(args, _tolerances(args))
        return dumps_canonical(payload), payload.get("status", "ok"), code
    except _INPUT_ERRORS as err:
        payload, code = {"status": "input_error", "error": str(err)}, EXIT_INPUT
    except (NotCp, NotPsd, NotContraction) as err:
        payload = {"status": "certificate_failed", "error": str(err)}
        if isinstance(err, (NotCp, NotPsd)):
            payload["min_eig"] = err.min_eig
        code = EXIT_CERT
    except Infeasible as err:
        payload, code = {"status": "infeasible", "error": str(err), "residual": err.residual}, EXIT_INFEASIBLE
    except NcrkhsError as err:
        payload, code = {"status": "input_error", "error": str(err)}, EXIT_INPUT
    return dumps_canonical(payload), payload["status"], code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    text, status, code = _outcome(args)
    _emit(text, args)
    print(f"ncrkhs {args.command}: {status}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
