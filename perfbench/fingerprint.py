"""Output fingerprints and their comparison with the committed reference.

A fingerprint is JSON data.  Exact data (dimensions, polynomials, Jordan
profiles, leading monomials, flags, error class names) must be equal.
Numeric data is wrapped by ``scalar`` or ``spectrum`` and carries its own
tolerance, so the reference decides how close a later result must be.

A spectrum is fingerprinted by its power sums p_j = sum(lambda_i ** j),
j = 1..n.  They determine the multiset of eigenvalues, need no matching or
ordering of nearly equal values, and stay well conditioned where single
eigenvalues of a Jordan block are not: a perturbation of size eps splits a
k-fold eigenvalue by about eps ** (1 / k), but moves the power sums by
about eps only.
"""

import json

SPECTRUM_RTOL = 1e-8
SCALAR_RTOL = 1e-6


def spectrum(values, rtol=SPECTRUM_RTOL):
    """Fingerprint of a multiset of complex numbers."""
    values = [complex(v) for v in values]
    sums, tols = [], []
    for j in range(1, len(values) + 1):
        p = sum(v ** j for v in values)
        size = sum(abs(v) ** j for v in values)
        sums.append([p.real, p.imag])
        tols.append(rtol * max(1.0, size))
    return {"spectrum": sums, "tol": tols}


def scalar(value, rtol=SCALAR_RTOL):
    """Fingerprint of a real or complex number."""
    z = complex(value)
    return {"scalar": [z.real, z.imag], "tol": rtol * max(1.0, abs(z))}


def normalize(fp):
    """JSON round trip, so tuples and lists compare alike."""
    return json.loads(json.dumps(fp, sort_keys=True))


def mismatches(got, want, path="$"):
    """Paths at which a fingerprint differs from the reference one."""
    if isinstance(want, dict) and "spectrum" in want:
        if not isinstance(got, dict) or len(got.get("spectrum", ())) != len(want["spectrum"]):
            return [f"{path}: spectrum size"]
        return [
            f"{path}: power sum {j + 1}"
            for j, (g, w, tol) in enumerate(zip(got["spectrum"], want["spectrum"], want["tol"]))
            if abs(complex(*g) - complex(*w)) > tol
        ]
    if isinstance(want, dict) and "scalar" in want:
        if not isinstance(got, dict) or "scalar" not in got:
            return [f"{path}: not a number"]
        diff = abs(complex(*got["scalar"]) - complex(*want["scalar"]))
        return [f"{path}: {got['scalar']} vs {want['scalar']}"] if diff > want["tol"] else []
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        out = []
        for key in sorted(want):
            out.extend(mismatches(got[key], want[key], f"{path}.{key}"))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out.extend(mismatches(g, w, f"{path}[{i}]"))
        return out
    return [] if got == want else [f"{path}: {got!r} vs {want!r}"]
