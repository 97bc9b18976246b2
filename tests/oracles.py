"""Independent brute-force oracles for the test suite.

Everything here enumerates nonnegative integer vectors directly and
solves small linear systems over the rationals. No dynamic programming,
no imports from the package: expected values frozen in the tests were
produced by these functions. The exceptions are
``lattice_ideal_by_groebner``, which takes the package's ``TermOrder``
(the order's key) and runs Buchberger without the chain criterion on
its own plain reduction, S-pairs and interreduction;
``candidate_lcms_exhaustive``, which takes a ``genfrob`` ball and
weight and uses the package's ``dot`` and ``InputError``;
``lcm_generator_classes_all_candidates``, the lcm construction over
every candidate lcm of the package's ``candidate_lcms`` and its
counting table; ``module_poset_by_classes``,
``generator_classes_by_class_tests`` and ``covers_by_class_add``, the
class-by-class forms of the module poset, of the generator test and of
the Hasse covers, on the package's walk, oracle table and class
arithmetic; ``thresholds_by_heap``, which wraps its
walk in the package's ``Thresholds``; and ``count_table_by_rows``, the
saturating dynamic programme the package's counting table ran before
it was one flat list, on the package's torsion coding and unit classes. ``build_parser`` is the argparse
parser the CLI used before its command table, kept as the reference
reading of every argv.
"""
import argparse
from fractions import Fraction
from itertools import combinations, product


def representations(a, degree):
    """All u in N^n with a . u == degree, by plain recursion."""
    n = len(a)
    out = []

    def rec(i, rem, cur):
        if i == n - 1:
            if rem % a[i] == 0:
                out.append(tuple(cur) + (rem // a[i],))
            return
        x = 0
        while x * a[i] <= rem:
            rec(i + 1, rem - x * a[i], cur + [x])
            x += 1

    if degree >= 0:
        rec(0, degree, [])
    return sorted(out)


def count_representations(a, degree):
    return len(representations(a, degree))


def in_span(vectors, v):
    """Integer membership in the span of the vectors, by rational solve."""
    rows = [list(w) for w in vectors]
    m = len(rows)
    n = len(v)
    A = [[Fraction(rows[i][j]) for i in range(m)] for j in range(n)]
    b = [Fraction(x) for x in v]
    coeffs = [None] * m
    pivot_rows = []
    for col in range(m):
        pivot = next(
            (r for r in range(len(A)) if r not in pivot_rows and A[r][col] != 0), None
        )
        if pivot is None:
            return False
        pivot_rows.append(pivot)
        for r in range(n):
            if r != pivot and A[r][col] != 0:
                factor = A[r][col] / A[pivot][col]
                for c in range(m):
                    A[r][c] -= factor * A[pivot][c]
                b[r] -= factor * b[pivot]
    for col, pivot in enumerate(pivot_rows):
        coeffs[col] = b[pivot] / A[pivot][col]
    for r in range(n):
        if r in pivot_rows:
            continue
        if sum(A[r][c] * coeffs[c] for c in range(m)) != b[r]:
            return False
    return all(c.denominator == 1 for c in coeffs)


def class_count(a, basis_vectors, p):
    """Number of nonnegative points congruent to p modulo the sublattice."""
    degree = sum(x * y for x, y in zip(a, p))
    return sum(
        1
        for u in representations(a, degree)
        if in_span(basis_vectors, tuple(x - y for x, y in zip(p, u)))
    )


def frobenius_by_enumeration(a, k, scan_limit):
    """Largest degree whose count stays below k, scanning to a limit.

    The caller must pass a limit beyond which full coverage is certain;
    the trailing min(a) degrees of the scan are required to be covered.
    """
    last_bad = -1
    for d in range(scan_limit + 1):
        if count_representations(a, d) < k:
            last_bad = d
    assert all(
        count_representations(a, d) >= k
        for d in range(scan_limit - min(a) + 1, scan_limit + 1)
    ), "scan limit too small for a trustworthy answer"
    return last_bad


def m_by_enumeration(a, k, scan_limit):
    for d in range(scan_limit + 1):
        if count_representations(a, d) >= k:
            return d
    raise AssertionError("scan limit too small")


def hasse_covers(elements, less):
    """Transitive reduction of a strict order given by the predicate less.

    (x, y) is a cover when x < y and no z has x < z < y; the z are taken
    away as one set union of the up-sets above x.
    """
    elements = list(elements)
    up = {x: {y for y in elements if less(x, y)} for x in elements}
    covers = set()
    for x in elements:
        above = set().union(*(up[z] for z in up[x]))
        covers |= {(x, y) for y in up[x] - above}
    return covers


def minimal_elements(elements, less):
    """Elements with nothing below them, by comparing every pair."""
    return {x for x in elements if not any(less(y, x) for y in elements)}


def max_antichain_by_search(elements, less):
    """Largest antichain, by exhaustive branch and bound.

    Runs a maximum-independent-set search on the comparability graph;
    exponential, so only for posets of a few dozen elements.
    """
    elems = list(elements)
    comparable = {
        (i, j)
        for i in range(len(elems))
        for j in range(len(elems))
        if i != j and (less(elems[i], elems[j]) or less(elems[j], elems[i]))
    }
    best = 0

    def rec(idx, chosen):
        nonlocal best
        if idx == len(elems):
            best = max(best, len(chosen))
            return
        if len(chosen) + (len(elems) - idx) <= best:
            return
        if all((idx, j) not in comparable for j in chosen):
            rec(idx + 1, chosen + [idx])
        rec(idx + 1, chosen)

    rec(0, [])
    return best


def reduce_monomial(u, gb, skip=None):
    """One reduction step of monomial u by the first applicable element."""
    for idx, (gh, gt) in enumerate(gb):
        if idx != skip and all(x >= y for x, y in zip(u, gh)):
            return tuple(x - y + z for x, y, z in zip(u, gh, gt)), True
    return u, False


def normal_form(pair, gb, order, skip=None):
    """Full normal form of a binomial pair, by a linear scan of gb and the
    full order key; None when it reduces to zero."""
    key = order.key
    u, v = pair
    if u == v:
        return None
    kv = key(v)
    while True:
        u, changed = reduce_monomial(u, gb, skip)
        if not changed:
            break
        if u == v:
            return None
        ku = key(u)
        if kv > ku:
            u, v, kv = v, u, ku
    while True:
        v, changed = reduce_monomial(v, gb, skip)
        if not changed:
            break
        if u == v:
            return None
    return (u, v)


def spair(f, g):
    """S-pair of two binomial pairs, or None when its two terms agree."""
    (fh, ft), (gh, gt) = f, g
    lcm = tuple(max(x, y) for x, y in zip(fh, gh))
    left = tuple(x - y + z for x, y, z in zip(lcm, fh, ft))
    right = tuple(x - y + z for x, y, z in zip(lcm, gh, gt))
    if left == right:
        return None
    return left, right


def interreduce(G, order):
    """Minimalise heads, then tail-reduce whole passes until one changes
    nothing; canonical sorted output."""
    key = order.key
    keep = []
    for h, t in sorted(set(G), key=lambda p: (key(p[0]), key(p[1]))):
        if any(all(x >= y for x, y in zip(h, kh)) for kh, _ in keep):
            continue
        keep.append((h, t))
    while True:
        changed = False
        out = []
        for i, pair in enumerate(keep):
            nf = normal_form(pair, keep, order, skip=i)
            if nf is None:
                changed = True
                continue
            if nf != pair:
                changed = True
            out.append(nf)
        keep = out
        if not changed:
            break
    return sorted(set(keep), key=lambda p: (key(p[0]), key(p[1])))


def groebner_without_chain_criterion(pairs, order):
    """Reduced Groebner basis by Buchberger with only the coprime-heads skip.

    S-pairs are reduced in increasing order of their lcm.
    """
    import heapq

    G = []
    queue = []

    def add(p):
        G.append(p)
        for i in range(len(G) - 1):
            lcm = tuple(max(x, y) for x, y in zip(G[i][0], p[0]))
            heapq.heappush(queue, (order.key(lcm), i, len(G) - 1))

    for h, t in pairs:
        add((h, t) if order.greater(h, t) else (t, h))
    while queue:
        _, i, j = heapq.heappop(queue)
        if all(x == 0 or y == 0 for x, y in zip(G[i][0], G[j][0])):
            continue
        s = spair(G[i], G[j])
        if s is None:
            continue
        if order.greater(s[1], s[0]):
            s = (s[1], s[0])
        nf = normal_form(s, G, order)
        if nf is not None:
            add(nf)
    return interreduce(G, order)


def lattice_ideal_by_groebner(basis, order=None):
    """Minimal Markov basis as (head, tail) pairs, by Groebner runs only.

    Saturates variable by variable, repeating whole rounds until one
    strips no monomial factor, then keeps each element of the reduced
    basis, in increasing degree, unless it reduces to zero modulo a
    Groebner basis of those kept before it.
    """
    from genfrob.ideal import TermOrder

    if order is None:
        order = TermOrder(basis.weight)
    pairs = [
        (tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
        for v in basis.vectors
    ]
    stripped = True
    while stripped:
        stripped = False
        for i in range(basis.n):
            out = []
            for h, t in groebner_without_chain_criterion(pairs, order.cheapest_in(i)):
                common = tuple(min(x, y) for x, y in zip(h, t))
                stripped = stripped or any(common)
                out.append(
                    (tuple(x - c for x, c in zip(h, common)), tuple(y - c for y, c in zip(t, common)))
                )
            pairs = out
    gb = groebner_without_chain_criterion(pairs, order)
    a = basis.weight.a
    kept = []
    for p in sorted(gb, key=lambda p: (sum(x * y for x, y in zip(a, p[0])), order.key(p[0]), order.key(p[1]))):
        if kept and normal_form(p, groebner_without_chain_criterion(kept, order), order) is None:
            continue
        kept.append(p)
    return kept


def candidate_lcms_exhaustive(bl, k, weight, degree_cap):
    """``genfrob.modules.candidate_lcms`` by a plain recursion over subsets.

    Walks every (k-1)-subset of the nonzero ball points in index order
    and prunes a branch only when its own partial lcm exceeds the cap.
    """
    from genfrob.lattice import InputError, dot

    if bl.radius != k - 1:
        raise InputError(f"need a ball of radius {k - 1}, got {bl.radius}")
    n = len(bl.points[0])
    others = [p for p in bl.points if any(p)]
    if len(others) < k - 1:
        raise InputError(f"ball has too few points for {k}-subsets")
    zero = (0,) * n
    found = set()

    def rec(start, chosen, lcm):
        if chosen == k - 1:
            found.add(lcm)
            return
        for idx in range(start, len(others) - (k - 2 - chosen)):
            p = others[idx]
            nxt = tuple(max(x, y) for x, y in zip(lcm, p))
            if dot(weight.a, nxt) > degree_cap:
                continue
            rec(idx + 1, chosen + 1, nxt)

    rec(0, 0, zero)
    return tuple(sorted(found))


def count_table_by_rows(basis, max_degree, cap):
    """rows[d][code] = min(#{u in N^n with label (d, torsions[code])}, cap).

    One list per degree, filled one generator at a time and one cell at a
    time, saturating at cap as it adds: the package's ``CountTable`` body
    before its table was one flat list of exact counts.
    """
    size = basis.index
    rows = [[0] * size for _ in range(max_degree + 1)]
    rows[0][0] = 1
    for ai, unit in zip(basis.weight.a, basis.units):
        shift = basis.torsion_shift([-x for x in unit.torsion])
        for d in range(ai, max_degree + 1):
            prev = rows[d - ai]
            cur = rows[d]
            for code in range(size):
                p = prev[shift[code]]
                if p:
                    s = cur[code] + p
                    cur[code] = s if s < cap else cap
    return rows


def lcm_generator_classes_all_candidates(basis, k, markov=None):
    """``genfrob.lcm_generator_classes`` over every candidate lcm.

    Labels each lcm of ``candidate_lcms`` under the cap m_k + max(F_1, 0),
    then keeps the classes c with no other class c2 among them such that
    c - c2 has a nonnegative representative, read from a counting table.
    """
    from genfrob import ball, candidate_lcms, count_table, kth_degrees, lattice_ideal, moves

    if markov is None:
        markov = lattice_ideal(basis)
    f_values, m_values = kth_degrees(basis, k)
    cap = m_values[-1] + max(f_values[0], 0)
    bl = ball(moves(markov), k - 1)
    orbits = {basis.label(g) for g in candidate_lcms(bl, k, basis.weight, cap)}
    table = count_table(basis, cap, 1)
    return frozenset(
        c
        for c in orbits
        if not any(c2 != c and table.count(basis.class_sub(c, c2)) >= 1 for c2 in orbits)
    )


def module_poset_by_classes(basis, k):
    """``genfrob.module_poset`` class by class: (labels, minimal elements, witnesses).

    Reads every class of the window [m_k, m_k + F_1] from the oracle
    counting table, keeps those of count >= k moved down by m_k, and keeps
    a label x as minimal when no x - g is a label for an atom g, by class
    subtraction. The witnesses are the classes of degree m_k.
    """
    from genfrob.counting import _oracle_table, m_value, thresholds
    from genfrob.lattice import QuotientClass

    mk = m_value(basis, k)
    t = thresholds(basis, k)
    f1 = t.f[0]
    if f1 < 0:
        return frozenset(), frozenset(), frozenset()
    table = _oracle_table(basis, mk + f1)
    labels = {
        QuotientClass(d - mk, cls.torsion)
        for d in range(mk, mk + f1 + 1)
        for cls, cnt in table.classes_at(d)
        if cnt >= k
    }
    witnesses = frozenset(QuotientClass(mk, x.torsion) for x in labels if x.degree == 0)
    minimal = frozenset(
        x for x in labels if not any(basis.class_sub(x, g) in labels for g in t.atoms())
    )
    return frozenset(labels), minimal, witnesses


def covers_by_class_add(basis, members, steps) -> tuple:
    """Hasse covers of a member set: the atom steps x -> x + g inside it, sorted."""
    pairs = ((x, y) for x in members for g in steps if (y := basis.class_add(x, g)) in members)
    return tuple(sorted(pairs))


def generator_classes_by_class_tests(basis, k):
    """The classes of ``genfrob.minimal_generators``, sorted, by the walk's
    ``at_least`` on each node's least class minus each atom."""
    from genfrob.counting import thresholds

    t = thresholds(basis, k)
    return sorted(
        c
        for c in t.least_classes(k)
        if not any(t.at_least(basis.class_sub(c, g), k) for g in t.atoms())
    )


def classify_by_support(g, support, k_next):
    """``genfrob.modules.classify`` of g from its sorted dominated points.

    Returns (case, witnesses), the case named as in the package's
    output. The lcms of the (k_next - 1)-subsets are all equal for an
    exceptional generator; an incomparable pair of them witnesses a
    syzygy of two generators; otherwise the one lcm other than g
    witnesses a syzygy with the unit.
    """
    g = tuple(g)
    lcms = set()
    for subset in combinations(support, k_next - 1):
        lcm = subset[0]
        for p in subset[1:]:
            lcm = tuple(max(x, y) for x, y in zip(lcm, p))
        lcms.add(lcm)
    lcms = sorted(lcms)
    if len(lcms) == 1:
        assert lcms[0] == g
        return "Exceptional", ()
    for l1, l2 in combinations(lcms, 2):
        if not all(x <= y for x, y in zip(l1, l2)) and not all(y <= x for x, y in zip(l1, l2)):
            return "SyzygyOfTwoGenerators", (l1, l2)
    proper = [lcm for lcm in lcms if lcm != g]
    assert len(proper) == 1
    return "SyzygyWithUnit", (proper[0],)


def thresholds_by_heap(basis, k_max):
    """``genfrob.counting.thresholds`` by a k-best Dijkstra walk.

    The engine before its round-robin form, kept as the oracle the round
    robin is checked against: it builds the same residue graph and
    returns the package's ``Thresholds``, but finds t_k(r) with a heap.

    Let a_s be the smallest weight. Every point of N^n is a multiset M of
    the other generators plus some multiple of e_s, so the count of a
    class c of degree d is the number of multisets M in the same class
    modulo <[e_s]> with deg M <= d. The nodes of the residue graph are
    those a_s * index classes, each encoded as one int: degree residue
    times the torsion size, plus the torsion code. The edges add one of
    the other generators; walks take generators in nondecreasing order,
    so each multiset is one walk.

    A Dijkstra search pops each (node, last generator) state at most
    k_max times, which keeps the k_max cheapest walks into every state.
    With t_k(r) the k-th smallest degree reached at node r, the classes
    of node r with count < k are those of degree t_k(r) - a_s and below,
    so F_k = max(max_r t_k(r) - a_s, -1) and m_k = min_r t_k(r).
    Every run checks the bound F_k <= m_k + max(F_1, 0).
    """
    import heapq

    from genfrob.counting import Thresholds
    from genfrob.lattice import InputError

    if k_max < 1:
        raise InputError("k must be at least 1")
    a = basis.weight.a
    n = basis.n
    s = a.index(min(a))
    a_s = a[s]
    moduli = basis.torsion_moduli
    tsize = 1
    for m in moduli:
        tsize *= m
    nodes = a_s * tsize
    torsions = list(product(*map(range, moduli)))  # in code order, mixed radix
    code_of = {t: i for i, t in enumerate(torsions)}

    def unit_torsion(i):
        return basis.torsion(tuple(int(j == i) for j in range(n)))

    t_s = unit_torsion(s)
    gens = [i for i in range(n) if i != s]
    steps = [a[i] for i in gens]
    # trans[j][node]: the node reached by adding generator gens[j]; the
    # degree overflow past a_s is taken off as multiples of [e_s].
    perms = {}
    trans = []
    for i in gens:
        t_i = unit_torsion(i)
        table = [0] * nodes
        for r in range(a_s):
            q, r2 = divmod(r + a[i], a_s)
            delta = tuple((x - q * y) % m for x, y, m in zip(t_i, t_s, moduli))
            perm = perms.get(delta)
            if perm is None:
                perm = [
                    code_of[tuple((x + y) % m for x, y, m in zip(t, delta, moduli))]
                    for t in torsions
                ]
                perms[delta] = perm
            base, base2 = r * tsize, r2 * tsize
            for c in range(tsize):
                table[base + c] = base2 + perm[c]
        trans.append(table)

    width = len(gens)
    pops = [0] * (nodes * width)
    reached = [[] for _ in range(nodes)]
    unfilled = nodes
    heap = [(0, 0)]  # (degree, node * width + last generator); the empty walk
    # Pops come in nondecreasing degree, so the first k_max degrees a node
    # receives are its k_max smallest, and the walk can stop once all are in.
    while heap and unfilled:
        d, state = heapq.heappop(heap)
        if pops[state] == k_max:
            continue
        pops[state] += 1
        node, j = divmod(state, width)
        degs = reached[node]
        if len(degs) < k_max:
            degs.append(d)
            if len(degs) == k_max:
                unfilled -= 1
        for jj in range(j, width):
            nxt = trans[jj][node] * width + jj
            if pops[nxt] < k_max:
                heapq.heappush(heap, (d + steps[jj], nxt))
    if unfilled:
        raise RuntimeError(f"residue-graph walk left {unfilled} of {nodes} nodes short")
    t = Thresholds(basis, reached, s)
    f1 = max(t.f[0], 0)
    for k, (f, m) in enumerate(zip(t.f, t.m), start=1):
        if f > m + f1:
            raise RuntimeError(f"F_{k} = {f} exceeds the bound m_k + F_1 = {m + f1}")
    return t


def _ascii_int(text: str) -> int:
    """int() of an optionally signed run of ASCII digits, spaces around
    it allowed, as the CLI reads its integers; int() alone also takes
    underscores between digits and non-ASCII digits."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(body)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genfrob",
        description="Generalised Frobenius numbers, lattice ideals, "
        "lattice modules, and structure posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k=False, k_max=False, formats=("text", "json")):
        p.add_argument("-a", "--weights", required=True, help="weights, e.g. 3,5,8")
        p.add_argument("--basis", help="file with one basis vector per line")
        p.add_argument("-o", "--output", help="write output to this path")
        p.add_argument("--format", choices=formats, default="text")
        if k:
            p.add_argument("-k", type=_ascii_int, default=1)
        if k_max:
            p.add_argument("--k-max", dest="k_max", type=_ascii_int, default=4)

    common(sub.add_parser("basis", help="kernel or sublattice basis and index"))
    common(sub.add_parser("ideal", help="minimal Markov basis of the lattice ideal"))
    common(sub.add_parser("ball", help="radius-k ball in the move graph"), k=True)
    common(sub.add_parser("module", help="minimal generators of the k-th module"), k=True)
    p = sub.add_parser("poset", help="structure poset, or module poset with -k")
    common(p, formats=("text", "json", "dot"))
    p.add_argument("-k", type=_ascii_int, default=None)
    common(sub.add_parser("frobenius", help="k-th Frobenius number"), k=True)
    common(sub.add_parser("sequence", help="F/m/b sequence report"), k_max=True)
    common(sub.add_parser("verify", help="pipeline against the counting and lcm oracles"),
           k_max=True, formats=("text",))
    return parser
