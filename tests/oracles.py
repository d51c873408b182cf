"""Slow reference implementations used to cross-check the fast paths.

The partial-transpose and wiring oracles walk explicit multi-indices one
matrix entry at a time, so none of them shares code
(reshape/einsum/kron) with the library under test.  Keep the systems tiny; these are
quadratic in the full dimension with Python-level loops.

The concentration oracles build every vector as a textbook Kronecker
product, (A (x) B)|psi+> with ``np.kron``, where the library reads the
same vector off a reshaped d x d matrix.

The product-state oracles normalize each party's sampled vector and
build the Kronecker product vectors of a whole chunk.  The joint one
takes <v|matrix|v> over every party's draw with one einsum; the
last-party one builds each reduced operator on the last party densely
with einsum and takes its smallest eigenvalue with ``eigvalsh``, where
the library contracts real coordinates of the unnormalized local
projectors and reads a qubit's smallest eigenvalue off a closed form.
All read the same seeded draws.

The renderer oracles format a scenario run one cell at a time through
their own 15-significant-digit formatter, where the library formats
the grid that every b shares once per run.

The sign-change oracle scans a dense grid of direct evaluations and
bisects each bracketed sign change, where the library takes the roots
of an interpolating polynomial from a companion matrix.

The family oracles write each noise family out as its textbook
formula, from its own state vectors, where the library mixes the two
stored ends of the family.

Slot convention matches the library: slot 0 is the most significant
digit of the flat index.
"""

import json
import math

import numpy as np


def unravel(flat, dims):
    digits = []
    rem = flat
    for d in reversed(dims):
        digits.append(rem % d)
        rem //= d
    return list(reversed(digits))


def ravel(digits, dims):
    flat = 0
    for x, d in zip(digits, dims):
        flat = flat * d + x
    return flat


def permute_oracle(mat, dims, perm):
    """Slot s of the input ends up at position perm[s] of the output."""
    n = len(dims)
    new_dims = [0] * n
    for s in range(n):
        new_dims[perm[s]] = dims[s]
    total = int(np.prod(dims))
    out = np.zeros((total, total), dtype=complex)
    for r in range(total):
        ri = unravel(r, dims)
        rn = [0] * n
        for s in range(n):
            rn[perm[s]] = ri[s]
        for c in range(total):
            ci = unravel(c, dims)
            cn = [0] * n
            for s in range(n):
                cn[perm[s]] = ci[s]
            out[ravel(rn, new_dims), ravel(cn, new_dims)] = mat[r, c]
    return out


def embed_oracle(local, local_dims, slots, full_dims):
    """Local operator on the named slots, identity on the rest."""
    total = int(np.prod(full_dims))
    out = np.zeros((total, total), dtype=np.result_type(local, complex))
    for r in range(total):
        ri = unravel(r, full_dims)
        for c in range(total):
            ci = unravel(c, full_dims)
            if any(ri[s] != ci[s] for s in range(len(full_dims)) if s not in slots):
                continue
            rl = [ri[s] for s in slots]
            cl = [ci[s] for s in slots]
            out[r, c] = local[ravel(rl, local_dims), ravel(cl, local_dims)]
    return out


def partial_trace_oracle(mat, dims, traced):
    kept = [s for s in range(len(dims)) if s not in traced]
    kept_dims = [dims[s] for s in kept]
    traced_dims = [dims[s] for s in traced]
    kept_total = int(np.prod(kept_dims)) if kept_dims else 1
    traced_total = int(np.prod(traced_dims)) if traced_dims else 1
    out = np.zeros((kept_total, kept_total), dtype=np.result_type(mat, complex))
    for rk in range(kept_total):
        rki = unravel(rk, kept_dims)
        for ck in range(kept_total):
            cki = unravel(ck, kept_dims)
            acc = 0.0 + 0.0j
            for t in range(traced_total):
                ti = unravel(t, traced_dims)
                ri = [0] * len(dims)
                ci = [0] * len(dims)
                for pos, s in enumerate(kept):
                    ri[s] = rki[pos]
                    ci[s] = cki[pos]
                for pos, s in enumerate(traced):
                    ri[s] = ti[pos]
                    ci[s] = ti[pos]
                acc += mat[ravel(ri, dims), ravel(ci, dims)]
            out[rk, ck] = acc
    return out


def partial_transpose_oracle(mat, dims, slots):
    total = int(np.prod(dims))
    out = np.zeros((total, total), dtype=complex)
    for r in range(total):
        ri = unravel(r, dims)
        for c in range(total):
            ci = unravel(c, dims)
            rn = list(ri)
            cn = list(ci)
            for s in slots:
                rn[s], cn[s] = ci[s], ri[s]
            out[ravel(rn, dims), ravel(cn, dims)] = mat[r, c]
    return out


def expectation_oracle(local_mats, slots, base_dims, copies, rho):
    """Tr(W rho^(x)copies), summed one operator entry at a time.

    ``local_mats[i]`` acts on the ordered (copy, party) pairs
    ``slots[i]`` of the copy-major layout; every other slot carries
    identity.  Entry (r, c) of W is the product of the witnesses'
    entries on their slots, and zero unless r and c agree on every
    identity slot; entry (c, r) of rho^(x)copies is the product of
    rho's entries, one per copy.
    """
    n = len(base_dims)
    full_dims = list(base_dims) * copies
    placed = [[c * n + p for c, p in group] for group in slots]
    covered = {s for group in placed for s in group}
    free = [s for s in range(len(full_dims)) if s not in covered]
    total = int(np.prod(full_dims))
    digits = [unravel(i, full_dims) for i in range(total)]
    acc = 0.0 + 0.0j
    for ri in digits:
        for ci in digits:
            if any(ri[s] != ci[s] for s in free):
                continue
            term = 1.0 + 0.0j
            for mat, group in zip(local_mats, placed):
                local_dims = [full_dims[s] for s in group]
                term *= mat[
                    ravel([ri[s] for s in group], local_dims),
                    ravel([ci[s] for s in group], local_dims),
                ]
            for k in range(copies):
                term *= rho[
                    ravel(ci[k * n:(k + 1) * n], base_dims),
                    ravel(ri[k * n:(k + 1) * n], base_dims),
                ]
            acc += term
    return acc


def kron_on_psi_plus(left, right):
    """(left (x) right)|psi+> as a Kronecker product applied to |psi+>."""
    d = left.shape[0]
    return np.kron(left, right) @ (np.eye(d).reshape(-1) / np.sqrt(d))


def schmidt_state_oracles(psi_mat):
    """The raw |phi> both ways: (1 (x) Psi)|psi+> and (Psi^T (x) 1)|psi+>."""
    eye = np.eye(psi_mat.shape[0])
    return kron_on_psi_plus(eye, psi_mat), kron_on_psi_plus(psi_mat.T, eye)


def measurement_vector_oracles(psi_mat, kind):
    """The raw measurement vector both ways.

    Kind "m": (1 (x) (Psi*)^-1)|psi+> and ((Psi^dag)^-1 (x) 1)|psi+>.
    Kind "M": (1 (x) (Psi* Psi*)^-1)|psi+> and
    ((Psi^dag)^-1 (x) (Psi*)^-1)|psi+>.
    """
    eye = np.eye(psi_mat.shape[0])
    conj = psi_mat.conj()
    inv_conj = np.linalg.inv(conj)
    inv_adj = np.linalg.inv(psi_mat.conj().T)
    if kind == "m":
        return kron_on_psi_plus(eye, inv_conj), kron_on_psi_plus(inv_adj, eye)
    return (
        kron_on_psi_plus(eye, np.linalg.inv(conj @ conj)),
        kron_on_psi_plus(inv_adj, inv_conj),
    )


def concentration_oracle(psi_mat, kind):
    """The two-copy protocol as dense matrices on slots A, B, A', B'.

    |phi> and the measurement vector come from the ``np.kron``
    constructions above, rho^(x)2 is the Kronecker square of
    |phi><phi|, the measurement projector is placed on (B, A') by
    ``embed_oracle``, and the (A, B') state is read off by
    ``partial_trace_oracle``.  From the Kronecker square on, the
    products, the embedding and the partial trace are carried in
    ``np.clongdouble``: for kind M the raw projector's entries grow
    like cond(Psi)**4, and at cond 60-100 the same sums in double
    precision differed from the library by up to 8e-10, where this
    oracle differs by under 5e-13 (400 random d = 2, 3 cases).  Returns
    (output_state, probability, fidelity_with_target, raw_weight) in
    double precision.  About 0.3 s at d=4, where the two-copy matrices
    are 256 x 256.
    """
    d = psi_mat.shape[0]
    full = [d] * 4
    psi_plus = np.eye(d).reshape(-1) / np.sqrt(d)
    phi_raw, _ = schmidt_state_oracles(psi_mat)
    vec, _ = measurement_vector_oracles(psi_mat, kind)
    phi_raw, vec = phi_raw.astype(np.clongdouble), vec.astype(np.clongdouble)
    phi = phi_raw / np.sqrt(np.sum(np.abs(phi_raw) ** 2))
    norm = np.sqrt(np.sum(np.abs(vec) ** 2))
    # the raw projector |vec><vec| on (B, A'); the normalized one is it / norm^2
    meas = embed_oracle(np.outer(vec, vec.conj()), [d, d], [1, 2], full)
    rho2 = np.kron(np.outer(phi, phi.conj()), np.outer(phi, phi.conj()))
    sandwich = meas @ rho2 @ meas / norm**4
    probability = np.trace(sandwich).real
    output = partial_trace_oracle(sandwich, full, [1, 2]) / probability
    target = phi if kind == "m" else psi_plus
    fidelity = (target.conj() @ output @ target).real
    rho2_raw = np.kron(np.outer(phi_raw, phi_raw.conj()), np.outer(phi_raw, phi_raw.conj()))
    raw_weight = np.sum(meas * rho2_raw.T).real  # Tr(AB) = sum_ij A_ij B_ji
    return output.astype(complex), float(probability), float(fidelity), float(raw_weight)


def _pure(*amplitudes):
    v = np.array(amplitudes, dtype=complex)
    v /= np.sqrt(np.vdot(v, v).real)
    return np.outer(v, v.conj())


def werner_w_oracle(w):
    """w I/4 + (1-w)|psi+><psi+|, psi+ = (|00> + |11>)/sqrt2."""
    return w * np.eye(4, dtype=complex) / 4.0 + (1.0 - w) * _pure(1, 0, 0, 1)


def werner_a_oracle(a):
    """a|psi-><psi-| + (1-a) I/4, psi- = (|00> - |11>)/sqrt2."""
    return a * _pure(1, 0, 0, -1) + (1.0 - a) * np.eye(4, dtype=complex) / 4.0


def noisy_w_oracle(c):
    """(1-c)|W><W| + c I/8, W = (|001> + |010> + |100>)/sqrt3."""
    return (1.0 - c) * _pure(0, 1, 1, 0, 1, 0, 0, 0) + c * np.eye(8, dtype=complex) / 8.0


FAMILY_ORACLES = {
    "werner_w": werner_w_oracle,
    "werner_a": werner_a_oracle,
    "noisy_w": noisy_w_oracle,
}


def bisect_sign_change(f, lo, hi, tol=1e-12):
    """Bisect a sign change of ``f`` on [lo, hi] down to bracket width ``tol``.

    A non-finite value raises: NaN compares as neither sign, so
    bisecting through it would report a root that is not there.
    """

    def value(p):
        v = f(p)
        if not math.isfinite(v):
            raise ValueError(f"f({p!r}) = {v} is not finite")
        return v

    flo, fhi = value(lo), value(hi)
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = value(mid)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sign_change_oracle(f, lo, hi, points=2001):
    """Every sign change of ``f`` that a uniform grid on [lo, hi] brackets, bisected.

    Grid values within 1e-12 * (1 + max|value|) of zero count as zero
    and have no sign, so a tangent zero whose grid value is rounding
    noise is not a sign change; a bracket runs between the nonzero
    grid values on either side of it.  Returns (roots, zero_ends): the
    bisected roots, ascending, and the ends of the range whose value
    counts as zero, where the grid cannot tell whether f changes sign.
    """
    grid = np.linspace(lo, hi, points)
    values = [f(float(p)) for p in grid]
    floor = 1e-12 * (1.0 + max(abs(v) for v in values))
    roots = []
    last = None
    for p, v in zip(grid, values):
        if abs(v) <= floor:
            continue
        if last is not None and (last[1] < 0.0) != (v < 0.0):
            roots.append(bisect_sign_change(f, last[0], float(p)))
        last = (float(p), v)
    zero_ends = [end for end, v in ((lo, values[0]), (hi, values[-1])) if abs(v) <= floor]
    return roots, zero_ends


def product_state_batch(dims, count, rng):
    """count Haar-random pure product vectors on the given slots, stacked in rows.

    Each local state is a vector of standard complex Gaussians,
    normalized.  One draw of shape (2, count, d) per party gives the
    real parts, then the imaginary parts: the same stream as two
    (count, d) draws.
    """
    batch = np.ones((count, 1), dtype=complex)
    for d in dims:
        parts = rng.standard_normal((2, count, d))
        parts /= np.sqrt(np.einsum("kbi,kbi->b", parts, parts))[:, None]
        loc = np.empty((count, d), dtype=complex)
        loc.real, loc.imag = parts
        batch = (batch[:, :, None] * loc[:, None, :]).reshape(count, -1)
    return batch


def _chunk_streams(samples, seed):
    """(count, generator) per chunk of 10000: chunk 0 from default_rng(seed),
    chunk i >= 1 from default_rng(SeedSequence(seed, spawn_key=(i,)))."""
    for i, start in enumerate(range(0, samples, 10000)):
        rng = np.random.default_rng(seed if i == 0 else np.random.SeedSequence(seed, spawn_key=(i,)))
        yield min(samples - start, 10000), rng


def joint_sampling_minimum_oracle(matrix, dims, samples, seed):
    """Minimum of <v|matrix|v> over the seeded product vectors of every party, chunk by chunk in one thread."""
    matrix = np.asarray(matrix, dtype=complex)
    best = np.inf
    for count, rng in _chunk_streams(samples, seed):
        vecs = product_state_batch(dims, count, rng)
        vals = np.einsum("bi,ij,bj->b", vecs.conj(), matrix, vecs).real
        best = min(best, float(vals.min()))
    return best


def last_party_exact_minimum_oracle(matrix, dims, samples, seed):
    """Minimum over the seeded product vectors v of parties 0..n-2 of the
    smallest eigenvalue of R = Tr_{0..n-2}[(|v><v| (x) I) matrix].

    Each R is built densely, R_ij = sum_ab conj(v_a) matrix[(a, i), (b, j)] v_b,
    and its eigenvalues come from ``np.linalg.eigvalsh``; the last party
    draws nothing, so parties 0..n-2 read the same stream as in
    ``joint_sampling_minimum_oracle``.
    """
    last = dims[-1]
    rest = int(np.prod(dims[:-1]))
    blocks = np.asarray(matrix, dtype=complex).reshape(rest, last, rest, last)
    best = np.inf
    for count, rng in _chunk_streams(samples, seed):
        vecs = product_state_batch(dims[:-1], count, rng)
        reduced = np.einsum("ka,aibj,kb->kij", vecs.conj(), blocks, vecs)
        best = min(best, float(np.linalg.eigvalsh(reduced)[:, 0].min()))
    return best


def _fmt15(x):
    return f"{float(x):.15g}"


def run_to_csv_oracle(run):
    """The scenario CSV table, every cell formatted on its own."""
    s = run.scenario
    if run.kind == "point":
        pv = _fmt15(s.family.value) if s.family.mode == "value" else ""
        return f"param,value\n{pv},{_fmt15(run.point_value)}\n"
    if s.witness_param is None:
        lines = ["param,value"]
        _, report = run.reports[0]
        for p, v in zip(report.params, report.values):
            lines.append(f"{_fmt15(p)},{_fmt15(v)}")
        return "\n".join(lines) + "\n"
    lines = [f"{run.reports[0][1].param_name},{s.witness_param.name},value"]
    for b, report in run.reports:
        for p, v in zip(report.params, report.values):
            lines.append(f"{_fmt15(p)},{_fmt15(b)},{_fmt15(v)}")
    return "\n".join(lines) + "\n"


def run_to_json_oracle(run):
    """The scenario's companion JSON, built field by field."""
    s = run.scenario

    def rounded(x):
        return float(_fmt15(x))

    def thresholds(report):
        return [{"root": rounded(t), "lo": rounded(t), "hi": rounded(t)} for t in report.thresholds]

    obj = {"scenario": s.name, "family": s.family.name, "seed": s.seed}
    if run.kind == "point":
        obj["kind"] = "point"
        obj["value"] = rounded(run.point_value)
        if s.family.mode == "value":
            obj["param"] = rounded(s.family.value)
    elif s.witness_param is None:
        _, report = run.reports[0]
        obj.update(kind="sweep", param_name=report.param_name, points=len(report.params))
        obj["thresholds"] = thresholds(report)
    else:
        obj.update(kind="sweep", param_name=run.reports[0][1].param_name, axis=s.witness_param.name)
        obj["sweeps"] = [
            {s.witness_param.name: rounded(b), "points": len(r.params), "thresholds": thresholds(r)}
            for b, r in run.reports
        ]
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
