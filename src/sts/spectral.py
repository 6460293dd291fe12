"""Eigen-analysis of the graded evolution operators.

Solves each degree block densely, verifies pairing and (iso)spectral
identities, computes the Witten index and the dynamical partition
function, classifies the spectrum type, and evaluates ground-state
observables.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import ceil, comb

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exterior import (
    d_matrix,
    exact_basis,
    hodge_star_inverse_matrix,
    hodge_star_matrix,
    interior_matrix,
    multiply_matrix,
)

UNBROKEN = "unbroken"
BROKEN_REAL = "broken-real"
BROKEN_COMPLEX = "broken-complex"
INDETERMINATE = "indeterminate"

_DEFECTIVE_COND = 1e10
# largest imaginary part a block may keep in its cos/sin basis, relative
# to its largest real entry: roundoff of real fields' products
_REAL_TOL = 1e-12
# largest relative commutator ||d H^(k) - H^(k+1) d|| / (||d|| ||H^(k)||):
# the blocks commute with d exactly, so anything above roundoff is a defect
_INVARIANCE_TOL = 1e-12
# up to this dimension blocks are solved with eigenvectors and guarded by a
# dense refined solve (see _end_union); 3-D advection-dominated blocks have
# unusable global eigenbases and are too large to re-solve, so they get
# eigenvalues only and a shift-invert guard on the refined d-exact subspaces
_MAX_VECTOR_DIMENSION = 2


@dataclass
class Tolerances:
    """Numerical thresholds used throughout the spectral pipeline.

    tol_zero is relative to the spectral radius; tol_pair is the pairing
    residual bound; tol_converge is the allowed relative eigenvalue drift
    when the truncation is refined from N to N + 2.
    """

    tol_zero: float = 1e-8
    tol_pair: float = 1e-6
    tol_converge: float = 1e-4

    def __post_init__(self):
        if min(self.tol_zero, self.tol_pair, self.tol_converge) <= 0:
            raise ValueError("all tolerances must be positive")


@dataclass
class EigenSystem:
    """Eigendecomposition of one degree block.

    Right vectors are the columns of ``right`` (None when the eigenbasis
    is unusable or was not computed); the matching left row of state n,
    the coefficient functional of its dual bra, is row n of the inverse
    of ``right`` and is formed only where it is read.
    ``converged[n]`` says whether eigenvalue n is certified by the
    truncation-refinement guard; every eigenvalue is trusted by default.
    """

    degree: int
    layout: object
    eigenvalues: np.ndarray
    right: np.ndarray = field(repr=False)
    condition: float = 1.0
    near_defective: bool = False
    converged: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.converged is None:
            self.converged = np.ones(len(self.eigenvalues), bool)

    @property
    def size(self):
        return len(self.eigenvalues)

    @property
    def has_vectors(self):
        return self.right is not None


def eigensolve(block, vectors=True):
    """Dense eigendecomposition of a degree block, in real arithmetic.

    The block is solved as the real matrix of its cos/sin basis (see
    :func:`_real_eig`), so its complex eigenvalues come in exact conjugate
    pairs.  Eigenvalues sorted by (Re, Im); each right vector's
    largest-modulus entry made real positive.  Ill-conditioned eigenbases
    (condition > 1e10) keep their eigenvalues but no vectors and are
    flagged near-defective.  With ``vectors=False`` only eigenvalues are
    computed (advection-dominated 3-D blocks routinely have unusable
    global eigenbases; use :func:`targeted_eigenpair` for individual
    states there).
    """
    w, W, U = _real_eig(block, vectors)
    V, cond = None, float("nan")
    if vectors:
        # U is unitary, so cond(U W) = cond(W)
        cond = float(np.linalg.cond(W))
        if cond <= _DEFECTIVE_COND:
            V = U @ W
            top = V[np.argmax(np.abs(V), axis=0), np.arange(len(w))]
            V = V / (top / np.abs(top))
    near_defective = cond > _DEFECTIVE_COND
    order = np.lexsort((w.imag, w.real))
    return EigenSystem(
        block.k_in, block.layout, w[order], None if V is None else V[:, order],
        condition=cond, near_defective=near_defective,
    )


def _real_eig(block, vectors):
    """Eigenvalues, and right vectors when asked, of a block solved as a
    real matrix.

    Every drift and noise field is real, so a block maps real forms to
    real forms, and U^H A U is real for the cos/sin basis U of
    ``BasisLayout.real_basis``.  Returns ``(w, W, U)``: complex
    eigenvalues, vectors in that basis (None without vectors) and U.
    Raises, through :func:`_real_part`, FloatingPointError on a block
    that is not finite and ValueError on one that is not real there.
    """
    U = block.layout.real_basis(block.k_in)
    R = _real_part(U.conj().T @ block.matrix @ U).toarray()
    if not vectors:
        return np.linalg.eigvals(R).astype(complex), None, U
    w, W = sla.eig(R)
    return w, W, U


def _real_part(M):
    """Real part of a sparse matrix whose imaginary part must be roundoff.

    Raises FloatingPointError on non-finite entries (an overflowed
    model), and ValueError on an imaginary part above 1e-12 of the
    largest real entry: one of the operator's fields is then not real.
    """
    M = M.tocsr()
    if not np.all(np.isfinite(M.data)):
        raise FloatingPointError("operator block contains non-finite entries")
    imag = np.abs(M.data.imag).max(initial=0.0)
    if imag > _REAL_TOL * np.abs(M.data.real).max(initial=0.0):
        raise ValueError(
            f"operator block is not real in the cos/sin basis (imaginary "
            f"part {imag:.3g}): a field is not real")
    return M.real


def spectral_radius(systems):
    return max(
        float(np.max(np.abs(s.eigenvalues))) if s.size else 0.0 for s in systems
    )


def zero_threshold(systems, tol):
    return tol.tol_zero * max(spectral_radius(systems), 1.0)


def zero_modes(systems, tol):
    """Per-degree counts of (numerically) zero eigenvalues vs Betti numbers."""
    thr = zero_threshold(systems, tol)
    counts = [int(np.sum(np.abs(s.eigenvalues) <= thr)) for s in systems]
    D = systems[0].layout.dimension
    betti = [comb(D, k) for k in range(D + 1)]
    return {"counts": counts, "betti": betti, "match": counts == betti}


def _trace_samples(systems, t_grid, signed, shift=0.0):
    """Samples of sum_k (+-1)^k tr exp(-t (H^(k) + shift))."""
    out = []
    for t in t_grid:
        total = 0.0 + 0.0j
        for s in systems:
            trace = np.sum(np.exp(-(s.eigenvalues + shift) * t))
            total += (-1) ** s.degree * trace if signed else trace
        out.append(complex(total))
    return out


def witten_index(systems, t_grid):
    """Alternating-trace samples W(t) = sum_k (-1)^k tr exp(-t H^(k))."""
    return _trace_samples(systems, t_grid, signed=True)


def partition_function(systems, t_grid):
    """Unsigned-trace samples Z(t) = sum_k tr exp(-t H^(k))."""
    return _trace_samples(systems, t_grid, signed=False)


def partition_slope(systems, ground_energy):
    """Large-t log-slope of Z(t), fitted at 25 times from T = 3/|Re E_g|.

    For an exponentially growing trace the slope converges to -min Re of
    the eigenvalues, the ground rate when the ground eigenvalue has the
    lowest real part.  A real ``ground_energy`` is sampled evenly over
    [T, 2T].  A complex one makes Z(t) oscillate as cos(|Im E_g| t), so
    its samples lie a whole number of ground periods apart (the number
    nearest T / 24, at least one) from the first period multiple at or
    after T: each sees the same phase.  The fit is of log|Z(t)| = c t +
    log|Z_c(t)|, with Z_c the trace of exp(-t (H + c)) and c = -min Re:
    no exponent of Z_c is positive, so a large T does not overflow.
    """
    re = abs(ground_energy.real)
    T = 3.0 / re if re > 0 else 3.0
    t = np.linspace(T, 2.0 * T, 25)
    if ground_energy.imag:
        period = 2 * np.pi / abs(ground_energy.imag)
        t = period * (ceil(T / period) + max(1, round(T / 24 / period)) * np.arange(25))
    c = -min(float(s.eigenvalues.real.min()) for s in systems)
    z = np.abs(_trace_samples(systems, t, signed=False, shift=c))
    return float(np.polyfit(t, c * t + np.log(z), 1)[0])


def pairing_check(systems, tol, *, blocks):
    """Count the boson-fermion pairs among the certified nonzero states.

    A state psi of degree k with ||d psi|| > ``tol_pair`` is paired up
    when d psi is an eigenvector of the next block of ``blocks`` (the
    operator the ``systems`` were solved from) with its eigenvalue, to a
    relative residual of ``tol_pair``; any other state is paired down
    when degree k - 1 has its eigenvalue (:func:`_drift_mask`).  Returns
    ``pairs``, ``violations`` (the unpaired states) and the
    :func:`even_odd_distance`; both counts are None when some system has
    no usable vectors.
    """
    thr = zero_threshold(systems, tol)
    out = {"pairs": None, "violations": None,
           "even_odd_distance": even_odd_distance(systems, thr)}
    if not all(s.has_vectors for s in systems):
        return out
    layout = systems[0].layout
    pairs = states = 0
    for k, s in enumerate(systems):
        keep = s.converged & (np.abs(s.eigenvalues) > thr)
        lam, V = s.eigenvalues[keep], s.right[:, keep]
        up = np.zeros(len(lam), bool)
        if k < layout.dimension:
            dV = d_matrix(layout, k) @ V
            norms = np.linalg.norm(dV, axis=0)
            up = norms > tol.tol_pair
            dV = dV[:, up]
            resid = np.linalg.norm(blocks[k + 1].matrix @ dV - dV * lam[up], axis=0)
            pairs += int(np.sum(resid / norms[up] <= tol.tol_pair))
        below = systems[k - 1].eigenvalues if k else np.zeros(0)
        pairs += int(np.sum(_drift_mask(lam[~up], below, tol.tol_pair)))
        states += len(lam)
    return {**out, "pairs": pairs, "violations": states - pairs}


def even_odd_distance(systems, thr):
    """Hausdorff distance between the nonzero even- and odd-degree spectra.

    Eigenvalues of modulus at most ``thr`` count as zero modes and are
    left out of both multisets.
    """
    def nonzero(parity):
        return np.concatenate([
            s.eigenvalues[np.abs(s.eigenvalues) > thr]
            for s in systems if s.degree % 2 == parity
        ])
    return hausdorff_distance(nonzero(0), nonzero(1))


def hausdorff_distance(a, b):
    """Hausdorff distance between two finite complex multisets."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if len(a) == 0 or len(b) == 0:
        return 0.0 if len(a) == len(b) else float("inf")
    d_ab = np.max([np.min(np.abs(b - x)) for x in a])
    d_ba = np.max([np.min(np.abs(a - y)) for y in b])
    return float(max(d_ab, d_ba))


def classify(systems, tol):
    """Spectrum-type classification of the evolution operator.

    Returns one of "unbroken", "broken-real", "broken-complex" from the
    energy of the :func:`ground_state`, or "indeterminate" when no
    eigenvalue is certified.  :func:`eigensolve` returns complex
    eigenvalues in exact conjugate pairs, so a complex ground energy is
    always one member of a resonance pair.
    """
    if not any(s.converged.any() for s in systems):
        return INDETERMINATE
    best = ground_state(systems, tol)["energy"]
    thr = zero_threshold(systems, tol)
    if best.real >= -thr:
        return UNBROKEN
    if abs(best.imag) <= thr:
        return BROKEN_REAL
    return BROKEN_COMPLEX


def ground_state(systems, tol):
    """Select the ground state among the certified eigenvalues: min Re,
    then min |Im|, preferring the negative-imaginary member of a
    resonance pair, then max degree, then basis index."""
    thr = zero_threshold(systems, tol)
    candidates = [
        (k, n, s.eigenvalues[n])
        for k, s in enumerate(systems) for n in range(s.size) if s.converged[n]
    ]
    if not candidates:
        raise ValueError("no converged eigenvalues to select a ground state from")
    min_re = min(c[2].real for c in candidates)
    pool = [c for c in candidates if c[2].real <= min_re + thr]
    min_aim = min(abs(c[2].imag) for c in pool)
    pool = [c for c in pool if abs(c[2].imag) <= min_aim + thr]
    min_im = min(c[2].imag for c in pool)
    pool = [c for c in pool if c[2].imag <= min_im + thr]
    pool.sort(key=lambda c: (-c[0], c[1]))
    k, n, lam = pool[0]
    return {"degree": k, "index": n, "energy": lam}


def isospectral_check(H_systems, HT_systems):
    """Per-degree Hausdorff distance between spec H^(k) and spec H_T^(D-k)."""
    D = H_systems[0].layout.dimension
    return [
        hausdorff_distance(H_systems[k].eigenvalues, HT_systems[D - k].eigenvalues)
        for k in range(D + 1)
    ]


def adjoint_check(H_blocks, HT_blocks):
    """Relative residual of H-dagger = star-inverse H_T star per degree."""
    layout = H_blocks.layout
    D = layout.dimension
    out = []
    for k in range(D + 1):
        star = hodge_star_matrix(layout, k)
        star_inv = hodge_star_inverse_matrix(layout, D - k)
        lhs = H_blocks[k].dense.conj().T
        rhs = (star_inv @ HT_blocks[D - k].matrix @ star).toarray()
        out.append(
            float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-300))
        )
    return out


def targeted_eigenpair(block, sigma):
    """Right and left eigenvectors of the eigenvalue nearest ``sigma``.

    Uses sparse shift-inverted Arnoldi on the block and its conjugate
    transpose, each shift factored by :func:`_shift_inverse`, so it works
    on blocks whose global eigenbasis is too ill-conditioned to invert.
    The left row is normalized so that left @ right = 1 (bi-orthogonal
    convention).  A target eigenvalue with another Ritz value within 1e-8
    relative is refused: its right and left vectors are then arbitrary
    members of a shared eigenspace.

    Returns a dict with keys degree, index (-1: not tied to a dense
    solve), energy, right, left, layout.
    """
    A = block.matrix.tocsc()
    shift = complex(sigma) + 1e-7j
    w, V = spla.eigs(A, k=4, sigma=shift, OPinv=_shift_inverse(A, shift),
                     which="LM")
    j = int(np.argmin(np.abs(w - sigma)))
    lam, right = w[j], V[:, j]
    if _drift_mask(w[j:j + 1], np.delete(w, j), 1e-8)[0]:
        raise ValueError(f"eigenvalue {complex(lam)} is degenerate")
    AH = A.conj().T.tocsc()
    wl, Vl = spla.eigs(AH, k=4, sigma=np.conj(shift),
                       OPinv=_shift_inverse(AH, np.conj(shift)), which="LM")
    jl = int(np.argmin(np.abs(np.conj(wl) - lam)))
    left = Vl[:, jl].conj()
    overlap = left @ right
    if abs(overlap) < 1e-12 * np.linalg.norm(left) * np.linalg.norm(right):
        raise ValueError("left/right eigenvectors nearly orthogonal (defective)")
    left = left / overlap
    jmax = int(np.argmax(np.abs(right)))
    phase = right[jmax] / abs(right[jmax])
    right = right / phase
    left = left * phase
    return {
        "degree": block.k_in, "index": -1, "energy": complex(lam),
        "right": right, "left": left, "layout": block.layout,
    }


# -- ground-state observables --------------------------------------------------


def _ground_vectors(ground, systems):
    """Resolve (right vector, left row, degree, layout) for a ground record."""
    if "right" in ground:
        return ground["right"], ground["left"], ground["degree"], ground["layout"]
    s = systems[ground["degree"]]
    if not s.has_vectors:
        raise ValueError(
            "eigensystem has no usable vectors; use targeted_eigenpair"
        )
    n = ground["index"]
    return s.right[:, n], np.linalg.inv(s.right)[n], s.degree, s.layout


def expectation(f, ground, systems=None):
    """Ground-state average of a function, <ground| M_f |ground>.

    The left eigen-row is the dual-pairing functional of the ground bra,
    so this is the pairing integral of the bra with f times the ket.  The
    imaginary part is returned as a sanity residual.
    """
    right, left, k, layout = _ground_vectors(ground, systems)
    val = left @ (multiply_matrix(f, layout, k) @ right)
    return float(val.real), float(abs(val.imag))


def response(f_field, ground, systems=None):
    """Ground-state matrix element of the d-exact probe [d, iota_f].

    Vanishes on d-symmetric (supersymmetric) ground states; an order-one
    value witnesses spontaneously broken topological supersymmetry.
    """
    right, left, k, layout = _ground_vectors(ground, systems)
    D = layout.dimension
    out = np.zeros_like(right)
    if k < D:
        out += interior_matrix(f_field, layout, k + 1) @ (d_matrix(layout, k) @ right)
    if k > 0:
        out += d_matrix(layout, k - 1) @ (interior_matrix(f_field, layout, k) @ right)
    return complex(left @ out)


# -- truncation-refinement convergence ----------------------------------------


def convergence_masks(systems, builder, tol, blocks):
    """Flag eigenvalues reproduced by the refined truncation N + 2.

    ``builder(layout)`` must return SeoBlocks on any layout, and
    ``blocks`` are the blocks ``systems`` were solved from.  In 2-D and
    3-D the guard uses that d commutes with H: im d^j is then invariant
    under H^(j+1), and spec H^(k) is the union of spec R_(k-1), b_k =
    C(D, k) exact zeros and spec R_k, with R_j = P_j^H H^(j+1) P_j the
    operator on im d^j (see :func:`exact_basis`).  So it first refuses a
    refined operator that does not commute with d
    (:func:`_refuse_noncommuting`).  Up to ``_MAX_VECTOR_DIMENSION`` it is a
    dense solve of the refined degrees 0 and D (:func:`_end_union`; 1-D has
    no degree between, so every refined block is solved).  A 3-D dense
    refined solve is too costly, so there the 12 lowest distinct
    eigenvalues, in (Re, Im) order, of each base R_j are the shifts of a
    sparse shift-inverted solve of the refined R_j; R_j is real, so a
    conjugate pair of shifts shares one solve, and the refined eigenvalues
    at the second shift are the mirrored ones (see :func:`_refined_near`).
    Each of the 4 * 12 lowest eigenvalues of degree k is attributed to
    R_(k-1), R_k or a Betti zero by a greedy one-to-one nearest matching
    with the base spectra, and is checked only against what the refined
    solve of its own R_j found.  The refined Betti zeros join every check of
    degree k when 0 is one of its 12 lowest distinct eigenvalues, where a
    shift-invert of the full refined block finds them; a Betti zero is
    certified only then.  All other eigenvalues are left flagged
    unconverged.
    """
    layout = systems[0].layout
    D = layout.dimension
    fine = builder(layout.refined())
    if D >= 2:  # the Hermitian Langevin oracle need not commute with d
        _refuse_noncommuting(fine)
    if D <= _MAX_VECTOR_DIMENSION:
        refined = _end_union(*(_real_eig(fine[k], vectors=False)[0]
                               for k in (0, D)), D)
        return [_drift_mask(s.eigenvalues, w, tol.tol_converge)
                for s, w in zip(systems, refined)]
    m = 12
    base, found = [], []
    for j in range(D):
        w = np.linalg.eigvals(
            _reduce(blocks[j + 1], exact_basis(layout, j)).toarray())
        base.append(w)
        targets = _shift_targets(w[np.lexsort((w.imag, w.real))], m)
        R = _reduce(fine[j + 1], exact_basis(fine.layout, j))
        found.append(_refined_near(R, targets))
    masks = []
    for k, s in enumerate(systems):
        # eigensolve sorts by (Re, Im), so the head is the lowest real parts
        head = s.eigenvalues[: 4 * m]
        # (base spectrum, refined eigenvalues found) of R_(k-1), R_k and the
        # Betti zeros; each head eigenvalue belongs to the part of its
        # partner in a greedy one-to-one nearest matching with the base
        # spectra
        parts = [(base[j], found[j]) for j in (k - 1, k) if 0 <= j < D]
        parts.append((np.zeros(comb(D, k)), np.zeros(0)))
        owner = np.repeat(np.arange(len(parts)), [len(w) for w, _ in parts])
        owner = owner[_partners(head, np.concatenate([w for w, _ in parts]))]
        # the refined Betti zeros are found where the full-block solve found
        # them: when 0 is one of the degree's 12 lowest distinct eigenvalues
        zero = np.zeros(int(np.abs(_shift_targets(s.eigenvalues, m)).min()
                            <= 1e-10))
        mask = np.zeros(s.size, bool)
        for i, (_, ref) in enumerate(parts):
            mask[: 4 * m][owner == i] = _drift_mask(
                head[owner == i], np.concatenate([ref, zero]), tol.tol_converge)
        masks.append(mask)
    return masks


def _refuse_noncommuting(blocks):
    """ValueError when a relative [d, H] residual of blocks exceeds 1e-12."""
    for k, resid in enumerate(blocks.d_commutator_residuals()):
        if resid > _INVARIANCE_TOL:
            raise ValueError(
                f"the degree-{k} and degree-{k + 1} blocks do not "
                f"commute with d (residual {resid:.3g})")


def _end_union(w0, wD, D):
    """Spectra of degrees 0..D <= 2 from those of 0 and D, when [d, H] = 0:
    b = (1, 2, 1) gives spec H^(1) = spec H^(0) + spec H^(2) (multisets)."""
    return [w0] + [np.concatenate([w0, wD])] * (D - 1) + [wD]


def _reduce(block, P):
    """Real matrix of R = P^H A P, the block A restricted to the subspace
    that the orthonormal columns of an :func:`exact_basis` P span; that
    subspace is invariant for an operator that commutes with d, which
    :func:`convergence_masks` checks before it reduces."""
    return _real_part(P.conj().T @ (block.matrix @ P))


def _partners(a, b):
    """Index into b of each a's partner in a greedy one-to-one matching
    that pairs the nearest free a and b first; len(b) >= len(a)."""
    partner = np.full(len(a), -1)
    taken = np.zeros(len(b), bool)
    left = len(a)
    for i, j in zip(*np.unravel_index(
            np.argsort(np.abs(a[:, None] - b), axis=None, kind="stable"),
            (len(a), len(b)))):
        if partner[i] < 0 and not taken[j]:
            partner[i], taken[j] = j, True
            left -= 1
            if not left:
                break
    return partner


def _shift_targets(eigenvalues, m):
    """The first m distinct (to 1e-10) of eigenvalues in (Re, Im) order."""
    targets = []
    for lam in eigenvalues:
        if all(abs(lam - t) > 1e-10 for t in targets):
            targets.append(lam)
        if len(targets) >= m:
            break
    return targets


def _drift(base, refined):
    """Distance from each base eigenvalue to the nearest refined one (inf
    when there is none)."""
    return np.abs(refined[None, :] - base[:, None]).min(axis=1, initial=np.inf)


def _drift_mask(base, refined, bound):
    """Whether each base eigenvalue has a refined one within ``bound``
    relative to max(1, |base|): the one rule by which the refinement
    guard, the pairing check and the degeneracy refusal of
    :func:`targeted_eigenpair` compare spectra."""
    return _drift(base, refined) <= bound * np.maximum(1.0, np.abs(base))


def _refined_near(A, targets):
    """Eigenvalues of the real sparse matrix A near each shift, via sparse
    shift-invert.

    A is real, so its spectrum near conj(sigma) is the conjugate of its
    spectrum near sigma: a target within 1e-10 of the conjugate of one
    already tried is not solved, and the conjugates of that solve's
    eigenvalues stand for it (none when that solve failed).  A is solved
    as a complex matrix: for a real matrix and a complex shift, ``eigs``
    would switch to its real-part mode, a different algorithm.  Each
    shift is factored by :func:`_shift_inverse`.
    """
    A = sp.csc_matrix(A, dtype=complex)
    solved = {}
    found = []
    for sigma in map(complex, targets):
        mirror = next((s for s in solved if abs(s.conjugate() - sigma) <= 1e-10),
                      None)
        if mirror is not None:
            found.extend(np.conj(solved[mirror]).tolist())
            continue
        # small imaginary offset keeps the shifted matrix nonsingular; an
        # exactly singular one fails to factor and finds nothing
        try:
            shift = sigma + 1e-7j
            w = spla.eigs(
                A, k=6, sigma=shift, OPinv=_shift_inverse(A, shift),
                which="LM", return_eigenvectors=False,
            )
        except (spla.ArpackNoConvergence, RuntimeError):
            w = np.zeros(0)
        solved[sigma] = w
        found.extend(w.tolist())
    return np.asarray(found)


def _shift_inverse(A, sigma):
    """(A - sigma I)^-1 as a LinearOperator, for ``eigs(..., OPinv=)``: a
    sparse LU in SuperLU's symmetric mode (minimum-degree ordering of
    A^T + A, a diagonal pivot kept unless below 0.1 of its column's
    largest), half the fill of the default COLAMD ordering on the nearly
    structurally symmetric operators.  RuntimeError when exactly singular.
    """
    M = sp.csc_matrix(A - sigma * sp.eye(A.shape[0], format="csc"))
    lu = spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                   options={"SymmetricMode": True})
    return spla.LinearOperator(A.shape, matvec=lu.solve, dtype=M.dtype)


# -- the full pipeline ---------------------------------------------------------


def analyze(blocks, builder, tol, vectors=True):
    """Eigensolve a family of degree blocks under the refinement guard.

    ``builder(layout) -> SeoBlocks`` re-assembles the same operator on a
    refined layout for the spectral-pollution guard, which stores its
    certifications on each system's ``converged``.  Right vectors are
    computed when ``vectors`` is true and the dimension is at most
    ``_MAX_VECTOR_DIMENSION``; a caller that needs only eigenvalues (a
    verdict, an oracle spectrum) passes False; in 2-D it then solves
    degrees 0 and 2 only (:func:`_end_union`, after the guard's [d, H]
    refusal).  Returns the list of :class:`EigenSystem`, one per degree.
    """
    D = blocks[0].layout.dimension
    vectors = vectors and D <= _MAX_VECTOR_DIMENSION
    if vectors or D != 2:
        systems = [eigensolve(b, vectors=vectors) for b in blocks]
    else:
        s0, s2 = (eigensolve(blocks[k], vectors=False) for k in (0, 2))
        _refuse_noncommuting(blocks)
        w = _end_union(s0.eigenvalues, s2.eigenvalues, 2)[1]
        order = np.lexsort((w.imag, w.real))
        systems = [s0, EigenSystem(1, blocks[1].layout, w[order], None,
                                   condition=float("nan")), s2]
    for s, mask in zip(systems, convergence_masks(systems, builder, tol, blocks)):
        s.converged = mask
    return systems


def report(systems, pairing, tol, t_grid):
    """The JSON-serializable report payload of guarded eigensystems.

    ``pairing`` is the :func:`pairing_check` result of the same systems.
    The payload lists every eigenvalue per degree with its certification,
    and holds the zero-mode and pairing summaries, the Witten and
    partition trace samples on ``t_grid``, the classification, its
    ground state (null when indeterminate), the partition slope (fitted
    only on a broken verdict, at the real part of a broken-real ground
    energy, whatever its roundoff) and the tolerances.
    """
    label = classify(systems, tol)
    ground = slope = None
    if label != INDETERMINATE:
        g = ground_state(systems, tol)
        e = g["energy"]
        ground = {"degree": g["degree"], "index": g["index"],
                  "re": float(e.real), "im": float(e.imag)}
        if label in (BROKEN_REAL, BROKEN_COMPLEX):
            slope = partition_slope(systems, e if label == BROKEN_COMPLEX else e.real)
    spectra = [
        [{"degree": k, "index": n, "re": float(lam.real), "im": float(lam.imag),
          "converged": bool(ok)}
         for n, (lam, ok) in enumerate(zip(s.eigenvalues, s.converged))]
        for k, s in enumerate(systems)
    ]
    t_grid = list(t_grid)
    return {
        "spectra": spectra,
        "zero_modes": zero_modes(systems, tol),
        "pairing_violations": pairing["violations"],
        "even_odd_distance": pairing["even_odd_distance"],
        "witten": {
            "t": t_grid,
            "w": [[v.real, v.imag] for v in witten_index(systems, t_grid)],
        },
        "partition": {
            "t": t_grid,
            "z": [[v.real, v.imag] for v in partition_function(systems, t_grid)],
            "slope": slope,
        },
        "classification": label,
        "ground": ground,
        "near_defective": any(s.near_defective for s in systems),
        "tolerances": asdict(tol),
    }
