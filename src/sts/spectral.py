"""Eigen-analysis of the graded evolution operators.

Solves each degree block densely, verifies pairing and (iso)spectral
identities, computes the Witten index and the dynamical partition
function, classifies the spectrum type, and evaluates ground-state
observables.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import comb

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .exterior import (
    d_matrix,
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
# up to this dimension blocks are solved with eigenvectors and guarded by a
# dense refined solve; 3-D advection-dominated blocks have unusable global
# eigenbases and are too large to re-solve, so they get eigenvalues only
# and a shift-invert guard
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
    Raises ValueError on non-finite entries, and on a block whose
    imaginary part there exceeds roundoff, 1e-12 of its largest real
    entry: one of its fields is then not real.
    """
    U = block.layout.real_basis(block.k_in)
    M = (U.conj().T @ block.matrix @ U).tocsr()
    if not np.all(np.isfinite(M.data)):
        raise ValueError("operator block contains non-finite entries")
    imag = np.abs(M.data.imag).max(initial=0.0)
    if imag > _REAL_TOL * np.abs(M.data.real).max(initial=0.0):
        raise ValueError(
            f"operator block is not real in the cos/sin basis (imaginary "
            f"part {imag:.3g}): a field is not real")
    R = M.real.toarray()
    if not vectors:
        return np.linalg.eigvals(R).astype(complex), None, U
    w, W = sla.eig(R)
    return w, W, U


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


def _trace_samples(systems, t_grid, signed):
    out = []
    for t in t_grid:
        total = 0.0 + 0.0j
        for s in systems:
            trace = np.sum(np.exp(-s.eigenvalues * t))
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
    """Large-t log-slope of Z(t), fitted over t in [T, 2T], T = 3/|Re E_g|.

    For an exponentially growing trace the slope converges to -Re of the
    ground eigenvalue.
    """
    re = abs(ground_energy.real)
    T = 3.0 / re if re > 0 else 3.0
    t = np.linspace(T, 2.0 * T, 25)
    z = np.array([abs(v) for v in partition_function(systems, t)])
    return float(np.polyfit(t, np.log(z), 1)[0])


def pairing_check(systems, tol, *, blocks):
    """Verify the boson-fermion pairing of all certified nonzero eigenvalues.

    For each state with dpsi appreciably nonzero, dpsi must be an
    eigenvector of the next block of ``blocks`` (the operator the
    ``systems`` were solved from) with the same eigenvalue; otherwise a
    matching eigenvalue must exist one degree down.  Also compares the
    nonzero even- and odd-degree spectra as multisets.  Returns a dict
    with per-state partner records and a list of violations; both are
    None when some system has no usable vectors, and then only the
    multiset comparison is made.
    """
    thr = zero_threshold(systems, tol)
    out = {
        "partners": None,
        "violations": None,
        "even_odd_distance": even_odd_distance(systems, thr),
        "threshold": thr,
    }
    if not all(s.has_vectors for s in systems):
        return out
    layout = systems[0].layout
    D = layout.dimension
    d_mats = [d_matrix(layout, k).matrix for k in range(D)]
    partners = []
    violations = []
    for k, s in enumerate(systems):
        for n in range(s.size):
            lam = s.eigenvalues[n]
            if abs(lam) <= thr or not s.converged[n]:
                continue
            psi = s.right[:, n]
            if k < D:
                dpsi = d_mats[k] @ psi
                nd = np.linalg.norm(dpsi)
            else:
                nd = 0.0
            if nd > tol.tol_pair:
                h_dpsi = blocks[k + 1].matrix @ dpsi
                resid = np.linalg.norm(h_dpsi - lam * dpsi) / nd
                if resid <= tol.tol_pair:
                    partners.append((k, n, k + 1, resid))
                else:
                    violations.append((k, n, "d-image not an eigenvector", resid))
            else:
                if k == 0:
                    violations.append((k, n, "d-closed nonzero state in degree 0", nd))
                    continue
                gap = float(np.min(np.abs(systems[k - 1].eigenvalues - lam)))
                if gap <= tol.tol_pair * max(1.0, abs(lam)):
                    partners.append((k, n, k - 1, gap))
                else:
                    violations.append((k, n, "no partner one degree down", gap))
    return {**out, "partners": partners, "violations": violations}


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
        star = hodge_star_matrix(layout, k).matrix
        star_inv = hodge_star_inverse_matrix(layout, D - k).matrix
        lhs = H_blocks[k].dense.conj().T
        rhs = (star_inv @ HT_blocks[D - k].matrix @ star).toarray()
        out.append(
            float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-300))
        )
    return out


def targeted_eigenpair(block, sigma):
    """Right and left eigenvectors of the eigenvalue nearest ``sigma``.

    Uses sparse shift-inverted Arnoldi on the block and its conjugate
    transpose, so it works on blocks whose global eigenbasis is too
    ill-conditioned to invert.  The left row is normalized so that
    left @ right = 1 (bi-orthogonal convention).  A target eigenvalue
    with another Ritz value within 1e-8 relative is refused: its right
    and left vectors are then arbitrary members of a shared eigenspace.

    Returns a dict with keys degree, index (-1: not tied to a dense
    solve), energy, right, left, layout.
    """
    A = block.matrix.tocsc()
    shift = complex(sigma) + 1e-7j
    w, V = spla.eigs(A, k=4, sigma=shift, which="LM")
    j = int(np.argmin(np.abs(w - sigma)))
    lam, right = w[j], V[:, j]
    if np.any(np.abs(np.delete(w, j) - lam) <= 1e-8 * max(1.0, abs(lam))):
        raise ValueError(f"eigenvalue {complex(lam)} is degenerate")
    wl, Vl = spla.eigs(A.conj().T.tocsc(), k=4,
                       sigma=np.conj(shift), which="LM")
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
    val = left @ (multiply_matrix(f, layout, k).matrix @ right)
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
        out += interior_matrix(f_field, layout, k + 1).matrix @ (
            d_matrix(layout, k).matrix @ right
        )
    if k > 0:
        out += d_matrix(layout, k - 1).matrix @ (
            interior_matrix(f_field, layout, k).matrix @ right
        )
    return complex(left @ out)


# -- truncation-refinement convergence ----------------------------------------


def convergence_masks(systems, builder, tol):
    """Flag eigenvalues reproduced by the refined truncation N + 2.

    ``builder(layout)`` must return SeoBlocks on any layout.  Layouts
    solved with eigenvectors are re-solved densely on the refined layout
    and every eigenvalue is checked.  A 3-D dense refined solve is too
    costly, so there only the 12 lowest-real-part distinct eigenvalues
    per degree are used as shifts of a sparse shift-inverted solve; the
    4 * 12 lowest-real-part eigenvalues are checked against what it
    finds, and all others are left flagged unconverged.
    """
    layout = systems[0].layout
    fine = builder(layout.refined())
    if layout.dimension <= _MAX_VECTOR_DIMENSION:
        return [
            _drift_mask(s.eigenvalues, _real_eig(fine[k], vectors=False)[0], tol)
            for k, s in enumerate(systems)
        ]
    m = 12
    masks = []
    for k, s in enumerate(systems):
        # eigensolve sorts by (Re, Im), so the head is the lowest real parts
        mask = np.zeros(s.size, bool)
        targets = []
        for lam in s.eigenvalues:
            if all(abs(lam - t) > 1e-10 for t in targets):
                targets.append(lam)
            if len(targets) >= m:
                break
        ref = _refined_near(fine[k], targets)
        if len(ref):
            mask[: 4 * m] = _drift_mask(s.eigenvalues[: 4 * m], ref, tol)
        masks.append(mask)
    return masks


def _drift_mask(base, refined, tol):
    drift = np.min(np.abs(refined[None, :] - base[:, None]), axis=1)
    return drift <= tol.tol_converge * np.maximum(1.0, np.abs(base))


def _refined_near(block, targets):
    """Refined eigenvalues near each shift, via sparse shift-invert."""
    A = block.matrix.tocsc()
    found = []
    for sigma in targets:
        # small imaginary offset keeps the shifted matrix nonsingular
        try:
            w = spla.eigs(
                A, k=6, sigma=complex(sigma) + 1e-7j,
                which="LM", return_eigenvectors=False,
            )
            found.extend(w.tolist())
        except (spla.ArpackNoConvergence, RuntimeError):
            continue
    return np.asarray(found)


# -- the full pipeline ---------------------------------------------------------


def analyze(blocks, builder=None, tol=None, vectors=True):
    """Eigensolve a family of degree blocks under the refinement guard.

    ``builder(layout) -> SeoBlocks`` re-assembles the same operator on a
    refined layout for the spectral-pollution guard, which stores its
    certifications on each system's ``converged``; when omitted every
    eigenvalue is trusted.  Right vectors are computed when ``vectors``
    is true and the dimension is at most ``_MAX_VECTOR_DIMENSION``; a
    caller that needs only eigenvalues (a verdict, an oracle spectrum)
    passes False.  Returns the list of :class:`EigenSystem`, one per
    degree.
    """
    tol = tol or Tolerances()
    vectors = vectors and blocks[0].layout.dimension <= _MAX_VECTOR_DIMENSION
    systems = [eigensolve(b, vectors=vectors) for b in blocks]
    if builder is not None:
        for s, mask in zip(systems, convergence_masks(systems, builder, tol)):
            s.converged = mask
    return systems


def report(systems, pairing, tol, t_grid):
    """The JSON-serializable report payload of guarded eigensystems.

    ``pairing`` is the :func:`pairing_check` result of the same systems.
    The payload lists every eigenvalue per degree with its certification,
    and holds the zero-mode and pairing summaries, the Witten and
    partition trace samples on ``t_grid``, the classification, its
    ground state (null when indeterminate), the partition slope (fitted
    only on a broken verdict) and the tolerances.
    """
    label = classify(systems, tol)
    ground = slope = None
    if label != INDETERMINATE:
        g = ground_state(systems, tol)
        e = g["energy"]
        ground = {"degree": g["degree"], "index": g["index"],
                  "re": float(e.real), "im": float(e.imag)}
        if label in (BROKEN_REAL, BROKEN_COMPLEX):
            slope = partition_slope(systems, e)
    spectra = [
        [{"degree": k, "index": n, "re": float(lam.real), "im": float(lam.imag),
          "converged": bool(ok)}
         for n, (lam, ok) in enumerate(zip(s.eigenvalues, s.converged))]
        for k, s in enumerate(systems)
    ]
    violations = pairing["violations"]
    t_grid = list(t_grid)
    return {
        "spectra": spectra,
        "zero_modes": zero_modes(systems, tol),
        "pairing_violations": None if violations is None else len(violations),
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
