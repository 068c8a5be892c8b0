"""Brute-force reference implementations that the fast engines are tested against."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from hoffman import (
    ActiveSetFamily,
    IndexSet,
    InequalitySystem,
    Level,
    LinearProgram,
    LpOutcome,
    LpStatus,
    Mat,
    StabilityVerdict,
    Trichotomy,
    Vec,
    enumerate_active_sets,
    make_index_set,
    max_residual,
    minmax_value_sq,
    nullspace,
    residuals,
    solve_linear,
)
from hoffman.lp import _MAX_PIVOTS, Constraint
from hoffman.rational import _row_rank

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _project_origin_onto_spanned_face(subset: Sequence[Vec], dim: int) -> tuple[Vec, Fraction] | None:
    """Project the origin onto aff(subset) if the subset is affinely
    independent and the projection has nonnegative barycentric coordinates.

    Returns (projection, squared distance) or None.
    """
    base = subset[0]
    diffs = [s - base for s in subset[1:]]
    if diffs:
        if _row_rank(diffs, dim) < len(diffs):
            return None  # affinely dependent; a smaller subset covers this face
        gram = Mat.of([[di.dot(dj) for dj in diffs] for di in diffs])
        rhs = Vec.of([-d.dot(base) for d in diffs])
        solution = solve_linear(gram, rhs)
        if solution is None or not solution.unique:
            raise RuntimeError("Gram system of an independent subset must be regular")
        coeffs = list(solution.point.entries)
        lead = 1 - sum(coeffs, Fraction(0))
        if lead < 0 or any(c < 0 for c in coeffs):
            return None
        projection = base
        for c, d in zip(coeffs, diffs):
            if c:
                projection = projection + d.scale(c)
    else:
        projection = base
    return projection, projection.norm_sq()


def min_norm_point_by_faces(points: Sequence[Vec]) -> tuple[Vec, Fraction]:
    """Nearest point of conv(points) to the origin, by face enumeration.

    Every affinely independent subset of at most n+1 distinct points
    contributes the projection of the origin onto its affine hull whenever
    that projection lies inside the subset's simplex; the closest candidate is
    the answer.  Exponential in the number of points.
    """
    pts = list(dict.fromkeys(points))
    dim = pts[0].dim
    best: tuple[Vec, Fraction] | None = None
    for size in range(1, min(dim + 1, len(pts)) + 1):
        for subset in combinations(pts, size):
            candidate = _project_origin_onto_spanned_face(subset, dim)
            if candidate is None:
                continue
            if best is None or candidate[1] < best[1]:
                best = candidate
    assert best is not None  # singletons always produce candidates
    return best


def _supporting_halfspace(subset: Sequence[Vec], pts: Sequence[Vec], dim: int) -> tuple[Vec, Fraction] | None:
    """Hyperplane through `subset` supporting conv(pts) with the origin
    strictly on the inner side; returns (outward normal, positive offset)."""
    base = subset[0]
    diffs = [s - base for s in subset[1:]]
    kernel = nullspace(diffs, dim)
    if len(kernel) != 1:
        return None  # subset does not span a hyperplane
    normal = kernel[0]
    offset = normal.dot(base)
    sides = [normal.dot(p) - offset for p in pts]
    if all(s <= 0 for s in sides):
        pass
    elif all(s >= 0 for s in sides):
        normal, offset = -normal, -offset
    else:
        return None
    if offset <= 0:
        return None
    return normal, offset


def inradius_by_supporting_halfspaces(points: Sequence[Vec]) -> Fraction:
    """Squared radius of the largest origin-centered ball inside conv(points),
    for an origin strictly inside, by a second facet search: the plane through
    each n-subset of the distinct points comes from the kernel of its point
    differences, is oriented so that the hull lies on one side, and counts
    when the origin lies strictly on that side."""
    pts = list(dict.fromkeys(points))
    dim = pts[0].dim
    best: Fraction | None = None
    for subset in combinations(pts, dim):
        plane = _supporting_halfspace(subset, pts, dim)
        if plane is None:
            continue
        normal, offset = plane
        candidate = offset * offset / normal.norm_sq()
        if best is None or candidate < best:
            best = candidate
    assert best is not None, "an interior origin implies at least one facet"
    return best


# -- Gauss-Jordan over Fraction ---------------------------------------------------


def fraction_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by exact Gauss-Jordan; returns (rref, pivot columns).

    The elimination `rational` ran over `Fraction` before it became
    fraction-free, kept as its reference.
    """
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    if not mat:
        return mat, pivots
    r = 0
    ncols = len(mat[0])
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        piv = mat[r][c]
        if piv != 1:
            mat[r] = [x / piv for x in mat[r]]
        lead = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def fraction_particular_solution(reduced: list[list[Fraction]], pivots: list[int], n: int) -> Vec:
    """The solution of a reduced `[M | rhs]` whose free variables are zero."""
    point = [_ZERO] * n
    for row_index, col in enumerate(pivots):
        point[col] = reduced[row_index][n]
    return Vec.of(point)


def fraction_kernel_basis(reduced: list[list[Fraction]], pivots: list[int], dim: int) -> list[Vec]:
    """One kernel vector per free column of a reduced matrix, in column order."""
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for free_col in range(dim):
        if free_col in pivot_set:
            continue
        v = [_ZERO] * dim
        v[free_col] = _ONE
        for row_index, piv_col in enumerate(pivots):
            v[piv_col] = -reduced[row_index][free_col]
        basis.append(Vec.of(v))
    return basis


# -- Wolfe's nearest-point method over Fraction ---------------------------------


def _fraction_affine_minimizer(corral: Sequence[Vec]) -> list[Fraction]:
    """Barycentric weights of the point of least norm in aff(corral), from the
    normal equations {sum_j <p_i, p_j> v_j + mu = 0, sum v_j = 1}."""
    k = len(corral)
    rows = [[p.dot(q) for q in corral] + [_ONE] for p in corral]
    rows.append([_ONE] * k + [_ZERO])
    solution = solve_linear(Mat.of(rows), Vec.of([_ZERO] * k + [_ONE]))
    if solution is None or not solution.unique:
        raise RuntimeError("the corral of the nearest-point method lost affine independence")
    return list(solution.point.entries[:k])


def _fraction_combine(weights: Sequence[Fraction], corral: Sequence[Vec]) -> Vec:
    point = corral[0].scale(weights[0])
    for w, p in zip(weights[1:], corral[1:]):
        if w:
            point = point + p.scale(w)
    return point


def fraction_min_norm_point_sq(points: Sequence[Vec]) -> tuple[Vec, Fraction]:
    """Wolfe's nearest-point method over `Fraction`: the steps
    `convex.min_norm_point_sq` took before they ran on one integer Gram
    matrix, kept as its reference.  Every Gram row comes from `Vec.dot`, and
    every minor step solves the whole corral system again."""
    pts = list(dict.fromkeys(points))
    first = min(range(len(pts)), key=lambda i: pts[i].norm_sq())
    corral, weights = [pts[first]], [_ONE]
    point = pts[first]
    dist_sq = point.norm_sq()
    while True:
        values = [p.dot(point) for p in pts]
        best = min(range(len(pts)), key=values.__getitem__)
        if values[best] >= dist_sq:
            break
        corral.append(pts[best])
        weights.append(_ZERO)
        while True:
            target = _fraction_affine_minimizer(corral)
            if all(v > 0 for v in target):
                weights = target
                break
            theta = min(w / (w - v) for w, v in zip(weights, target) if v <= 0)
            weights = [(1 - theta) * w + theta * v for w, v in zip(weights, target)]
            kept = [i for i, w in enumerate(weights) if w]
            corral = [corral[i] for i in kept]
            weights = [weights[i] for i in kept]
        point = _fraction_combine(weights, corral)
        previous, dist_sq = dist_sq, point.norm_sq()
        if dist_sq >= previous:
            raise RuntimeError("nearest-point method made no progress")
    return point, dist_sq


# -- exact simplex over Fraction ------------------------------------------------


def _pivot(tab: list[list[Fraction]], obj: list[Fraction], basis: list[int], leave: int, enter: int) -> None:
    prow = tab[leave]
    piv = prow[enter]
    if piv != 1:
        prow = [v / piv for v in prow]
        tab[leave] = prow
    for r in range(len(tab)):
        if r != leave:
            row = tab[r]
            f = row[enter]
            if f:
                tab[r] = [a - f * b for a, b in zip(row, prow)]
    f = obj[enter]
    if f:
        obj[:] = [a - f * b for a, b in zip(obj, prow)]
    basis[leave] = enter


def _optimize(tab: list[list[Fraction]], obj: list[Fraction], basis: list[int]) -> int | None:
    """Pivot to optimality under Bland's rule.

    Returns None at an optimum, or the entering column index when the
    objective is unbounded above.
    """
    ncols = len(obj) - 1  # trailing slot mirrors the rhs and is ignored
    pivots = 0
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return None
        best_ratio: Fraction | None = None
        leave: int | None = None
        for r, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and leave is not None and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave is None:
            return enter
        _pivot(tab, obj, basis, leave, enter)
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise RuntimeError("simplex pivot bound exceeded")


def _solve_ineq_lp(cost: Vec, ineqs: Sequence[Constraint]) -> tuple[LpStatus, Vec | None]:
    """Maximize `cost . q` over {q : coeffs . q <= bound}, all variables free.

    Returns (status, optimal point | improving ray | None).
    """
    k = cost.dim
    rows: list[Constraint] = []
    for coeffs, bound in ineqs:
        if coeffs.is_zero():
            if bound < 0:
                return LpStatus.INFEASIBLE, None
            continue  # vacuous row
        rows.append((coeffs, bound))

    if not rows:
        if cost.is_zero():
            return LpStatus.OPTIMAL, Vec.zeros(k)
        return LpStatus.UNBOUNDED, cost  # unconstrained: the cost vector improves

    # Standard form: q = u - v with u, v >= 0, one slack per row, artificials
    # only for rows whose right-hand side had to be negated.
    nrows = len(rows)
    nstruct = 2 * k
    negated = [bound < 0 for _, bound in rows]
    n_art = sum(negated)
    width = nstruct + nrows + n_art

    art_col: dict[int, int] = {}
    next_art = nstruct + nrows
    for r, flag in enumerate(negated):
        if flag:
            art_col[r] = next_art
            next_art += 1

    tab: list[list[Fraction]] = []
    basis: list[int] = []
    for r, (coeffs, bound) in enumerate(rows):
        sign = -_ONE if negated[r] else _ONE
        row = [_ZERO] * (width + 1)
        for j in range(k):
            c = coeffs[j]
            if c:
                row[j] = sign * c
                row[k + j] = -sign * c
        row[nstruct + r] = sign
        row[-1] = sign * bound
        if negated[r]:
            row[art_col[r]] = _ONE
            basis.append(art_col[r])
        else:
            basis.append(nstruct + r)
        tab.append(row)

    art_start = nstruct + nrows

    if n_art:
        obj = [_ZERO] * (width + 1)
        for c in range(art_start, width):
            obj[c] = -_ONE
        for r in range(nrows):
            if basis[r] >= art_start:
                obj = [a + b for a, b in zip(obj, tab[r])]
        if _optimize(tab, obj, basis) is not None:
            raise RuntimeError("phase one cannot be unbounded")
        if any(basis[r] >= art_start and tab[r][-1] != 0 for r in range(len(tab))):
            return LpStatus.INFEASIBLE, None
        # Drive zero-valued artificials out; rows that cannot pivot are redundant.
        drop: list[int] = []
        for r in range(len(tab)):
            if basis[r] >= art_start:
                enter = next((j for j in range(art_start) if tab[r][j] != 0), None)
                if enter is None:
                    drop.append(r)
                else:
                    _pivot(tab, obj, basis, r, enter)
        for r in reversed(drop):
            del tab[r]
            del basis[r]
        tab = [row[:art_start] + [row[-1]] for row in tab]

    width = art_start
    cost_std = [_ZERO] * (width + 1)
    for j in range(k):
        c = cost[j]
        if c:
            cost_std[j] = c
            cost_std[k + j] = -c
    obj = cost_std[:]
    for r in range(len(tab)):
        cb = cost_std[basis[r]]
        if cb:
            obj = [a - cb * b for a, b in zip(obj, tab[r])]

    enter = _optimize(tab, obj, basis)
    if enter is None:
        values = [_ZERO] * width
        for r, col in enumerate(basis):
            values[col] = tab[r][-1]
        point = Vec.of([values[j] - values[k + j] for j in range(k)])
        return LpStatus.OPTIMAL, point

    ray_vals = [_ZERO] * width
    ray_vals[enter] = _ONE
    for r, col in enumerate(basis):
        ray_vals[col] = -tab[r][enter]
    ray = Vec.of([ray_vals[j] - ray_vals[k + j] for j in range(k)])
    return LpStatus.UNBOUNDED, ray


def _eliminate_equalities(eqs: Sequence[Constraint], n: int) -> tuple[Vec, list[Vec]] | None:
    """Particular solution and nullspace basis of the equality block, or None.

    An empty block returns the origin and the standard basis, so the program
    is solved in its own coordinates.
    """
    if not eqs:
        return Vec.zeros(n), [Vec.unit(n, j) for j in range(n)]
    matrix = Mat(tuple(vec for vec, _ in eqs))
    rhs = Vec.of([bound for _, bound in eqs])
    solution = solve_linear(matrix, rhs)
    if solution is None:
        return None
    kernel = nullspace([vec for vec, _ in eqs], n)
    return solution.point, kernel


def fraction_solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact two-phase simplex over `Fraction`: the tableau `solve_lp` ran
    before it became fraction-free, kept as its reference."""
    n = lp.n
    reduced = _eliminate_equalities(lp.eq_constraints, n)
    if reduced is None:
        return LpOutcome(LpStatus.INFEASIBLE)
    origin, kernel = reduced
    if not kernel:
        if all(vec.dot(origin) <= bound for vec, bound in lp.ineq_constraints):
            return LpOutcome(LpStatus.OPTIMAL, lp.objective.dot(origin), origin)
        return LpOutcome(LpStatus.INFEASIBLE)
    projected = [
        (Vec.of([vec.dot(kv) for kv in kernel]), bound - vec.dot(origin))
        for vec, bound in lp.ineq_constraints
    ]
    cost = Vec.of([lp.objective.dot(kv) for kv in kernel])
    status, payload = _solve_ineq_lp(cost, projected)
    if status is LpStatus.INFEASIBLE:
        return LpOutcome(LpStatus.INFEASIBLE)
    assert payload is not None
    lifted = Vec.zeros(n)
    for coeff, kv in zip(payload, kernel):
        if coeff:
            lifted = lifted + kv.scale(coeff)
    if status is LpStatus.UNBOUNDED:
        return LpOutcome(LpStatus.UNBOUNDED, None, lifted)
    point = origin + lifted
    return LpOutcome(LpStatus.OPTIMAL, lp.objective.dot(point), point)


# -- realizability over Fraction --------------------------------------------------


def fraction_realizability(system: InequalitySystem, indices: IndexSet, level: Level) -> Vec | None:
    """The margin program of `activesets.realizability`, built as a
    `LinearProgram` of `Fraction` rows and solved by `fraction_solve_lp`:
    the path the package took before its margin programs read the integer
    rows each system scales once, kept as its reference."""
    n = system.n
    width = n + (2 if level is Level.POSITIVE else 1)  # x, [level t,] margin s
    eqs, ineqs = [], []
    for i, row in enumerate(system.A.rows, start=1):
        lifted = row.entries + ((-_ONE,) if level is Level.POSITIVE else ())
        if i in indices:
            eqs.append((Vec.of(lifted + (_ZERO,)), system.b[i - 1]))
        else:
            ineqs.append((Vec.of(lifted + (_ONE,)), system.b[i - 1]))
    margin = Vec.unit(width, width - 1)
    if level is Level.POSITIVE:
        guard = [_ZERO] * width
        guard[n], guard[-1] = -_ONE, _ONE
        ineqs.append((Vec.of(guard), _ZERO))  # s <= t
    ineqs.append((margin, _ONE))
    outcome = fraction_solve_lp(LinearProgram(margin, tuple(eqs), tuple(ineqs)))
    if outcome.status is not LpStatus.OPTIMAL or outcome.optimal_value <= 0:
        return None
    return Vec.of(outcome.witness.entries[:n])


def fraction_active_sets(system: InequalitySystem, level: Level) -> ActiveSetFamily:
    """Every nonempty row subset, by size and then lexicographically, that
    `fraction_realizability` finds realizable, with its witness: the
    enumeration with no pruning, on the `Fraction` path."""
    witnesses = {}
    for size in range(1, system.m + 1):
        for combo in combinations(range(1, system.m + 1), size):
            witness = fraction_realizability(system, combo, level)
            if witness is not None:
                witnesses[combo] = witness
    return ActiveSetFamily(level, tuple(witnesses), witnesses)


# -- maximal members of a family by all pairs -------------------------------------


def maximal_sets_by_pairs(family: Sequence[IndexSet]) -> list[IndexSet]:
    """Inclusion-maximal members, in the family's order, keeping the first of
    equal members: every set is tested against every other set."""
    sets = [make_index_set(s) for s in family]
    as_sets = [set(s) for s in sets]
    out: list[IndexSet] = []
    for i, candidate in enumerate(as_sets):
        if any(i != j and candidate < other for j, other in enumerate(as_sets)):
            continue
        if any(candidate == other for other in as_sets[:i]):
            continue  # drop duplicates, keep the first occurrence
        out.append(sets[i])
    return out


# -- stability by a scan of every zero-level member -----------------------------------


def stability_by_full_scan(system: InequalitySystem) -> StabilityVerdict:
    """Stability from the sign and magnitude of every member of the zero-level
    family: the loop `analysis.check_stability` ran before it computed only
    the extremal members, kept as its reference."""
    family = enumerate_active_sets(system, Level.ZERO)
    violating: IndexSet | None = None
    bound: Fraction | None = None
    for indices in family.sets:
        value = minmax_value_sq(system.rows_for(indices))
        if value.sign is Trichotomy.ZERO and violating is None:
            violating = indices
        if bound is None or value.value_sq < bound:
            bound = value.value_sq
    return StabilityVerdict(stable=violating is None, violating_set=violating, lower_bound_sq=bound)


# -- distance to the solution set by row subsets ------------------------------------


def distance_sq_to_polyhedron(system: InequalitySystem, x: Vec) -> Fraction | None:
    """Exact squared distance from x to the solution set; None when empty.

    The nearest feasible point is the orthogonal projection of x onto the
    affine span of its set of tight rows, so enumerating row subsets, solving
    the normal equations exactly, and keeping feasible candidates is exact.
    """
    values = residuals(system, x)
    if all(v <= 0 for v in values):
        return _ZERO
    m = system.m
    best: Fraction | None = None
    for size in range(1, m + 1):
        for combo in combinations(range(1, m + 1), size):
            rows = [system.A.rows[i - 1] for i in combo]
            gram = Mat.of([[ri.dot(rj) for rj in rows] for ri in rows])
            rhs = Vec.of([system.b[i - 1] - rows[pos].dot(x) for pos, i in enumerate(combo)])
            solution = solve_linear(gram, rhs)
            if solution is None:
                continue  # the tight-row equalities are inconsistent
            candidate = x
            for coeff, row in zip(solution.point, rows):
                if coeff:
                    candidate = candidate + row.scale(coeff)
            if any(v > 0 for v in residuals(system, candidate)):
                continue
            dist_sq = (x - candidate).norm_sq()
            if best is None or dist_sq < best:
                best = dist_sq
    return best


def perturbation_ratio_sq(system: InequalitySystem, x: Vec) -> Fraction:
    """Squared ratio (max residual / distance to the solution set) at x.

    Requires a point with strictly positive maximum residual.  When the
    solution set is empty the distance is infinite by convention and the
    ratio is zero.
    """
    value = max_residual(system, x)
    if value <= 0:
        raise ValueError("ratio requires a point with positive maximum residual")
    dist_sq = distance_sq_to_polyhedron(system, x)
    if dist_sq is None:
        return _ZERO
    return value * value / dist_sq
