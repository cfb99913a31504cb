"""Checks one job's exit code, stderr and JSON payload against its expectation.

Verdicts, statuses, ranks and dimensions are compared exactly.  Floats are
compared within stated tolerances, never by bytes, so an evaluation engine
that changes the order of floating-point sums still passes:

* values against the independent numpy reference: relative Frobenius error
  at most VALUE_RTOL;
* factorization errors (``gram_error``, ``reconstruction_error``) and axiom
  violations: at most the library's equality tolerance;
* scalars with a closed form (norms, cb norms): relative error at most
  SCALAR_RTOL.
"""

from __future__ import annotations

import json

import numpy as np

EQ_REL = 1e-10          # the library's default equality tolerance, Tolerances().eq_rel
VALUE_RTOL = 1e-9
SCALAR_RTOL = 1e-9


class Mismatch(Exception):
    pass


def _matrix(obj) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _need(cond, what):
    if not cond:
        raise Mismatch(what)


def _close(got, want, rtol, what):
    got, want = np.asarray(got), np.asarray(want)
    _need(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
    _need(err <= rtol, f"{what}: relative error {err:.3e} > {rtol:.0e}")


def check_value(job, payload):
    _close(_matrix(payload["value"]), job.ref["value"], VALUE_RTOL, "value")


def check_error(job, payload):
    _need(job.ref["contains"] in payload["error"], f"error message {payload['error']!r}")


def check_certificate(job, payload):
    passed = job.ref["passed"]
    _need(payload["passed"] is passed, f"verdict {payload['passed']} != {passed}")
    _need(payload["sample"]["gram_dim"] == job.ref["gram_dim"],
          f"gram_dim {payload['sample']['gram_dim']} != {job.ref['gram_dim']}")
    if passed:
        _need("witness_vector" not in payload, "witness on a passing certificate")
    else:
        _need(payload["min_eig"] < 0, "failing certificate with nonnegative min_eig")
        _need(_matrix(payload["witness_vector"]).shape == (job.ref["gram_dim"], 1), "witness vector shape")
        _need(len(payload["witness_points"]) == len(payload["sample"]["sizes"]), "witness point count")


def check_kolmogorov(job, payload):
    _need(payload["rank"] == job.ref["rank"], f"rank {payload['rank']} != {job.ref['rank']}")
    _need(payload["gram_error"] <= EQ_REL, f"gram_error {payload['gram_error']:.3e}")
    _need(len(payload["factors"]) == job.ref["points"], "factor count")
    for point, factor in zip(payload["points"], payload["factors"]):
        n = point["n"]
        _need((factor["rows"], factor["cols"]) == (n, n * job.ref["rank"]), "factor shape")


def check_axioms(job, payload):
    _need(payload["passed"] is True, "kernel axioms failed")
    _need(payload["max_violation"] <= EQ_REL, f"axiom violation {payload['max_violation']:.3e}")


def check_ncfun(job, payload):
    for key in ("direct_sums", "intertwinings"):
        _need(payload[key]["passed"] is True, f"{key} failed")
        _need(payload[key]["max_violation"] <= EQ_REL, f"{key} violation {payload[key]['max_violation']:.3e}")


def check_series(job, payload):
    got = {tuple(t["word"]): _matrix(t["coeff"]) for t in payload["series"]["terms"]}
    want = job.ref["terms"]
    _need(set(got) == set(want), "recovered support differs")
    for w, c in want.items():
        _close(got[w], c, VALUE_RTOL, f"coefficient {w}")


def check_formal_factor(job, payload):
    _need(payload["rank"] == job.ref["rank"], f"rank {payload['rank']} != {job.ref['rank']}")
    _need(payload["reconstruction_error"] <= EQ_REL, f"reconstruction_error {payload['reconstruction_error']:.3e}")


def check_formal_positivity(job, payload):
    passed = job.ref["passed"]
    _need(payload["moment_route"]["passed"] is passed, "moment-route verdict")
    _need(payload["nilpotent_route"]["passed"] is passed, "nilpotent-route verdict")
    _need(payload["routes_agree"] is True, "routes disagree")


def check_gram(job, payload):
    _close(_matrix(payload["kernel"]["gram"]), job.ref["gram"], VALUE_RTOL, "gram")


def check_scalar(job, payload):
    key = job.ref["key"]
    _close(payload[key], job.ref["value"], SCALAR_RTOL, key)


def check_brangesian(job, payload):
    _close(payload["operator_norm"], job.ref["operator_norm"], SCALAR_RTOL, "operator_norm")
    _need(payload["m_rank"] == job.ref["m_rank"], "m_rank")
    _need(payload["h_rank"] == job.ref["h_rank"], "h_rank")
    _need(payload["norm_identity_max_violation"] <= 1e-8, "norm identity")
    _need(payload["min_split_margin"] >= -1e-8, "split margin")


def check_stinespring(job, payload):
    _need(payload["r"] == job.ref["r"], f"dilation rank {payload['r']} != {job.ref['r']}")
    _need(payload["reconstruction_error"] <= EQ_REL, "reconstruction_error")


def check_cb_norm(job, payload):
    _close(payload["cb_norm"], job.ref["value"], SCALAR_RTOL, "cb_norm")
    _need(payload["max_amplified_ratio"] <= job.ref["value"] * (1 + SCALAR_RTOL), "amplified ratio above cb norm")


CHECKS = {
    "value": check_value,
    "error": check_error,
    "certificate": check_certificate,
    "kolmogorov": check_kolmogorov,
    "axioms": check_axioms,
    "ncfun": check_ncfun,
    "series": check_series,
    "formal_factor": check_formal_factor,
    "formal_positivity": check_formal_positivity,
    "gram": check_gram,
    "scalar": check_scalar,
    "brangesian": check_brangesian,
    "stinespring": check_stinespring,
    "cb_norm": check_cb_norm,
}


def validate(job, code, stdout: str, stderr: str) -> str | None:
    """None when the job's output matches its expectation, else the reason."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if code != job.exit:
        return f"exit code {code} != {job.exit}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not one JSON document: {exc}"
    if payload.get("status") != job.status:
        return f"status {payload.get('status')!r} != {job.status!r}"
    try:
        CHECKS[job.check](job, payload)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed payload: {exc!r}"
    return None
