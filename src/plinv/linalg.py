"""Dense exact linear algebra over Fraction, sized for symbol spaces."""

from fractions import Fraction


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    bt = list(zip(*b))
    return [[sum(row[i] * col[i] for i in range(k)) for col in bt] for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(r) for r in zip(*a)]


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
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
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel_basis(a):
    """Basis of {x : a x = 0} (column kernel) as row vectors."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -red[r][fcol]
        basis.append(vec)
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
