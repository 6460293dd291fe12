"""Eigen-analysis of the graded evolution operators.

Solves each degree block densely, builds the bi-orthogonal left system,
verifies pairing and (iso)spectral identities, computes the Witten index
and the dynamical partition function, classifies the spectrum type, and
evaluates ground-state observables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Bi-orthogonal eigendecomposition of one degree block.

    Right vectors are the columns of ``right``; the matching left rows
    (rows of ``left``) satisfy left @ right = identity, so the row
    left[n] is the coefficient functional of the dual bra of state n.
    """

    degree: int
    layout: object
    eigenvalues: np.ndarray
    right: np.ndarray = field(repr=False)
    left: np.ndarray = field(repr=False)
    residual: float = 0.0
    condition: float = 1.0
    near_defective: bool = False

    @property
    def size(self):
        return len(self.eigenvalues)

    @property
    def has_vectors(self):
        return self.right is not None and not self.near_defective


def eigensolve(block, vectors=True):
    """Dense bi-orthogonal eigendecomposition of a degree block.

    Eigenvalues sorted by (Re, Im); each right vector's largest-modulus
    entry made real positive; left rows from the inverse of the right
    matrix.  Ill-conditioned eigenbases (condition > 1e10) fall back to a
    Schur decomposition and are flagged near-defective.  With
    ``vectors=False`` only eigenvalues are computed (advection-dominated
    3-D blocks routinely have unusable global eigenbases; use
    :func:`targeted_eigenpair` for individual states there).
    """
    A = block.dense
    if not np.all(np.isfinite(A)):
        raise ValueError("operator block contains non-finite entries")
    if not vectors:
        w = np.linalg.eigvals(A)
        order = np.lexsort((w.imag, w.real))
        return EigenSystem(
            block.k_in, block.layout, w[order], None, None,
            residual=float("nan"), condition=float("nan"),
        )
    w, V = sla.eig(A)
    order = np.lexsort((w.imag, w.real))
    w, V = w[order], V[:, order]
    for n in range(V.shape[1]):
        j = int(np.argmax(np.abs(V[:, n])))
        phase = V[j, n] / abs(V[j, n])
        V[:, n] = V[:, n] / phase
    cond = float(np.linalg.cond(V))
    if cond > _DEFECTIVE_COND:
        # eigenbasis unusable; report Schur values and an orthonormal basis
        T, Q = sla.schur(A.astype(complex), output="complex")
        w = np.diag(T)
        order = np.lexsort((w.imag, w.real))
        w = w[order]
        return EigenSystem(
            block.k_in, block.layout, w, Q, Q.conj().T,
            residual=float("nan"), condition=cond, near_defective=True,
        )
    L = np.linalg.inv(V)
    residual = float(np.max(np.abs(L @ V - np.eye(len(w)))))
    return EigenSystem(
        block.k_in, block.layout, w, V, L,
        residual=residual, condition=cond,
    )


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
    slope = np.polyfit(t, np.log(z), 1)[0]
    return float(slope), (float(T), float(2 * T))


def pairing_check(systems, tol, converged=None, *, blocks):
    """Verify the boson-fermion pairing of all nonzero eigenvalues.

    For each state with dpsi appreciably nonzero, dpsi must be an
    eigenvector of the next block of ``blocks`` (the operator the
    ``systems`` were solved from) with the same eigenvalue; otherwise a
    matching eigenvalue must exist one degree down.  Also compares the
    nonzero even- and odd-degree spectra as multisets.  Returns a dict
    with per-state partner records and a list of violations.
    """
    layout = systems[0].layout
    D = layout.dimension
    thr = zero_threshold(systems, tol)
    d_mats = [d_matrix(layout, k).matrix for k in range(D)]
    partners = []
    violations = []
    for k, s in enumerate(systems):
        mask = converged[k] if converged is not None else np.ones(s.size, bool)
        for n in range(s.size):
            lam = s.eigenvalues[n]
            if abs(lam) <= thr or not mask[n]:
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
    return {
        "partners": partners,
        "violations": violations,
        "even_odd_distance": even_odd_distance(systems, thr),
        "threshold": thr,
    }


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


def classify(systems, tol, converged=None):
    """Spectrum-type classification of the evolution operator.

    Returns one of "unbroken", "broken-real", "broken-complex" based on
    the converged eigenvalue with the most negative real part, or
    "indeterminate" if that eigenvalue failed the refinement check.
    """
    thr = zero_threshold(systems, tol)
    best = None
    for k, s in enumerate(systems):
        mask = converged[k] if converged is not None else np.ones(s.size, bool)
        for n in range(s.size):
            lam = s.eigenvalues[n]
            if not mask[n]:
                continue
            if best is None or lam.real < best.real:
                best = lam
    if best is None:
        return INDETERMINATE
    if best.real >= -thr:
        return UNBROKEN
    if abs(best.imag) <= thr:
        return BROKEN_REAL
    # conjugate partner must be present for a genuine resonance pair
    partner = min(
        abs(s.eigenvalues - np.conj(best)).min() for s in systems if s.size
    )
    if partner > tol.tol_pair * max(1.0, abs(best)):
        return INDETERMINATE
    return BROKEN_COMPLEX


def ground_state(systems, tol, converged=None):
    """Select the ground state: min Re, then min |Im|, preferring the
    negative-imaginary member of a resonance pair, then max degree, then
    basis index."""
    thr = zero_threshold(systems, tol)
    candidates = []
    for k, s in enumerate(systems):
        mask = converged[k] if converged is not None else np.ones(s.size, bool)
        for n in range(s.size):
            if mask[n]:
                candidates.append((k, n, s.eigenvalues[n]))
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
    return s.right[:, n], s.left[n], s.degree, s.layout


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
            _drift_mask(s.eigenvalues, np.linalg.eigvals(fine[k].dense), tol)
            for k, s in enumerate(systems)
        ]
    m = 12
    masks = []
    for k, s in enumerate(systems):
        mask = np.zeros(s.size, bool)
        order = np.argsort(s.eigenvalues.real)
        targets = []
        for n in order:
            lam = s.eigenvalues[n]
            if all(abs(lam - t) > 1e-10 for t in targets):
                targets.append(lam)
            if len(targets) >= m:
                break
        ref = _refined_near(fine[k], targets)
        if len(ref):
            head = order[: 4 * m]
            mask[head] = _drift_mask(s.eigenvalues[head], ref, tol)
        masks.append(mask)
    return masks


def _drift_mask(base, refined, tol):
    mask = np.zeros(len(base), bool)
    for n, lam in enumerate(base):
        if np.min(np.abs(refined - lam)) <= tol.tol_converge * max(1.0, abs(lam)):
            mask[n] = True
    return mask


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


@dataclass
class SpectralReport:
    """Everything the spectral pipeline knows about one operator family."""

    systems: list = field(repr=False)
    zero_mode_summary: dict = None
    pairing: dict = None
    witten_samples: list = None
    witten_t_grid: list = None
    partition_samples: list = None
    partition_slope: float = None
    classification: str = INDETERMINATE
    ground: dict = None
    converged: list = field(repr=False, default=None)
    tolerances: Tolerances = None
    near_defective: bool = False

    def to_dict(self):
        """JSON-serializable summary (spectra included per degree)."""
        spectra = []
        for k, s in enumerate(self.systems):
            spectra.append(
                [
                    {
                        "degree": k,
                        "index": n,
                        "re": float(s.eigenvalues[n].real),
                        "im": float(s.eigenvalues[n].imag),
                        "converged": bool(self.converged[k][n]),
                    }
                    for n in range(s.size)
                ]
            )
        ground = None
        if self.ground is not None:
            ground = {
                "degree": self.ground["degree"],
                "index": self.ground["index"],
                "re": float(self.ground["energy"].real),
                "im": float(self.ground["energy"].imag),
            }
        return {
            "spectra": spectra,
            "zero_modes": self.zero_mode_summary,
            "pairing_violations": len(self.pairing["violations"])
            if self.pairing
            else None,
            "even_odd_distance": self.pairing["even_odd_distance"]
            if self.pairing
            else None,
            "witten": {
                "t": self.witten_t_grid,
                "w": [[v.real, v.imag] for v in self.witten_samples],
            },
            "partition": {
                "t": self.witten_t_grid,
                "z": [[v.real, v.imag] for v in self.partition_samples],
                "slope": self.partition_slope,
            },
            "classification": self.classification,
            "ground": ground,
            "near_defective": self.near_defective,
            "tolerances": {
                "tol_zero": self.tolerances.tol_zero,
                "tol_pair": self.tolerances.tol_pair,
                "tol_converge": self.tolerances.tol_converge,
            },
        }


def analyze(blocks, builder=None, tol=None, t_grid=(0.1, 1.0, 10.0)):
    """Run the full spectral pipeline on a family of degree blocks.

    ``builder(layout) -> SeoBlocks`` re-assembles the same operator on a
    refined layout for the spectral-pollution guard; when omitted every
    eigenvalue is trusted.  3-D blocks are solved for eigenvalues only
    (see ``_MAX_VECTOR_DIMENSION``), so they get eigenvalue-based
    diagnostics and no per-state pairing check.
    """
    tol = tol or Tolerances()
    vectors = blocks[0].layout.dimension <= _MAX_VECTOR_DIMENSION
    systems = [eigensolve(b, vectors=vectors) for b in blocks]
    near_def = any(s.near_defective for s in systems)
    if builder is None:
        converged = [np.ones(s.size, bool) for s in systems]
    else:
        converged = convergence_masks(systems, builder, tol)
    zm = zero_modes(systems, tol)
    if not all(s.has_vectors for s in systems):
        pairing = None
    else:
        pairing = pairing_check(systems, tol, converged, blocks=blocks)
    w = witten_index(systems, t_grid)
    z = partition_function(systems, t_grid)
    label = classify(systems, tol, converged)
    ground = None
    slope = None
    if label != INDETERMINATE:
        ground = ground_state(systems, tol, converged)
        if label in (BROKEN_REAL, BROKEN_COMPLEX):
            slope, _ = partition_slope(systems, ground["energy"])
    return SpectralReport(
        systems=systems,
        zero_mode_summary=zm,
        pairing=pairing,
        witten_samples=w,
        witten_t_grid=list(t_grid),
        partition_samples=z,
        partition_slope=slope,
        classification=label,
        ground=ground,
        converged=converged,
        tolerances=tol,
        near_defective=near_def,
    )
