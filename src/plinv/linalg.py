"""Exact linear algebra over Z, sized for symbol spaces.  `echelon` is the
one Gaussian elimination in plinv, for the Manin relations
(`SymbolSpace._build`), the eigen-lines (`kernel_basis`) and the cusp
ranks (`rank`).  It is fraction-free: a row is cleared by a multiple of a
pivot row, scaled first only where the pivot does not divide the entry."""

from math import gcd, lcm


def fraction(*args):
    """Fraction(*args), importing `fractions` only when one is built."""
    from fractions import Fraction

    return Fraction(*args)


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def primitive(row):
    """The integer row with content 1 on the same ray as a rational `row`."""
    den = lcm(*(x.denominator for x in row))
    row = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _clear(row, f, p, prow):
    """Cancel f, just popped from `row`, by the pivot row p x + prow, in
    place; returns the factor `row` was scaled by first, 1 if p | f."""
    scale = 1
    if p != 1:
        g = gcd(f, p)
        f, scale = f // g, p // g
        if scale != 1:
            for c in row:
                row[c] *= scale
    for c, v in prow.items():
        row[c] = row.get(c, 0) - f * v
    return scale


def _primitive(p, row):
    g = gcd(p, *row.values())
    return (p // g, {c: v // g for c, v in row.items()}) if g > 1 else (p, row)


def echelon(rows):
    """The reduced row echelon form over Q of the sparse integer `rows`
    (dicts, or (column, value) pairs), eliminated over Z shortest first, as
    {pivot column: (pivot, row)}: pivot > 0, `row` maps the free columns
    to ints, and row / pivot is the unique reduced row.  A row is made
    primitive only after it was scaled.  `holders` indexes, per free
    column, the pivot rows that may hold it, so a new pivot revisits only
    those."""
    pivots, holders = {}, {}
    for row in sorted(rows, key=len):
        row = dict(row)
        scale = 1
        for c in [c for c in row if c in pivots]:
            scale *= _clear(row, row.pop(c), *pivots[c])
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        pc = min(row)
        p = row.pop(pc)
        if p < 0:
            p, row = -p, {c: -v for c, v in row.items()}
        piv = _primitive(p, row) if scale != 1 else (p, row)
        for opc in holders.pop(pc, ()):  # replaces values only
            op, orow = pivots[opc]
            if pc in orow:
                s = _clear(orow, orow.pop(pc), *piv)
                for c in piv[1]:  # the only entries _clear changed
                    if orow[c]:
                        holders.setdefault(c, set()).add(opc)
                    else:
                        del orow[c]
                pivots[opc] = _primitive(op * s, orow) if s != 1 else (op, orow)
        pivots[pc] = piv
        for c in piv[1]:
            holders.setdefault(c, set()).add(pc)
    return pivots


def kernel_basis(a):
    """Basis of {x : a x = 0} (column kernel) as primitive integer rows,
    one per free column, positive there: x_f = 1 and x_c = -row[f] / p for
    each pivot row p x_c + row, scaled by the lcm of those p, so that no
    Fraction is built."""
    if not a:
        return []
    ncols = len(a[0])
    pivots = echelon({c: x for c, x in enumerate(r) if x} for r in a)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        held = [(pc, p, row[f]) for pc, (p, row) in pivots.items() if f in row]
        den = lcm(*(p for _, p, _ in held))
        vec = [0] * ncols
        vec[f] = den
        for pc, p, v in held:
            vec[pc] = -v * (den // p)
        basis.append(primitive(vec))
    return basis


def left_eigen_space(a, eigenvalue, restrict=None):
    """Basis of {w : w a = eigenvalue * w}, optionally within the row
    space spanned by `restrict`."""
    if restrict is None:
        m = [[x - eigenvalue * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
        return kernel_basis(transpose(m))
    # rows c of the kernel of (restrict * a - eigenvalue * restrict)^T
    m = [[x - eigenvalue * y for x, y in zip(row, r)]
         for row, r in zip(mat_mul(restrict, a), restrict)]
    return mat_mul(kernel_basis(transpose(m)), restrict)


def rank(a):
    return len(echelon({c: x for c, x in enumerate(r) if x} for r in a))
