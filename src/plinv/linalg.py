"""Dense exact linear algebra, sized for symbol spaces.  Elimination is
fraction-free: rows are kept primitive (integer, content 1), and a row is
cleared against a pivot row by cross-multiplying."""

from math import gcd, lcm


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


def rref(rows):
    """Reduced row echelon form over Z; returns (rows, pivot_columns).
    Each row is primitive, with zeros in every other pivot column."""
    rows = [primitive(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        a = rows[r][c]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = primitive([a * x - f * y for x, y in zip(rows[i], rows[r])])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel_basis(a):
    """Basis of {x : a x = 0} (column kernel) as primitive integer rows,
    one per free column, positive there."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref(a)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        scale = lcm(*(row[pcol] for row, pcol in zip(red, pivots) if row[fcol]))
        vec = [0] * ncols
        vec[fcol] = scale
        for row, pcol in zip(red, pivots):
            vec[pcol] = -row[fcol] * scale // row[pcol]
        basis.append(primitive(vec))
    return basis


def left_eigen_space(a, eigenvalue, restrict=None):
    """Basis of {w : w a = eigenvalue * w}, optionally within the row
    space spanned by `restrict`."""
    n = len(a)
    if restrict is None:
        m = [[x - eigenvalue * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
        return kernel_basis(transpose(m))
    # rows c of the kernel of (restrict * a - eigenvalue * restrict)^T
    m = mat_mul(restrict, a)
    m = [[m[i][j] - eigenvalue * restrict[i][j] for j in range(n)] for i in range(len(restrict))]
    combos = kernel_basis(transpose(m))
    return [vec_mat(c, restrict) for c in combos]


def vec_mat(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(m))) for j in range(len(m[0]))]


def rank(a):
    return len(rref(a)[0]) if a else 0
