import random

from wallnorm.snf import int_det, unimodular_inverse

from reference import smith_normal_form


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_snf_transform_identities():
    rng = random.Random(42)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        a = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        result = smith_normal_form(a, rows, cols)
        u = [list(r) for r in result.u]
        u_inv = [list(r) for r in result.u_inverse]
        # U and its inverse really are inverse to each other
        prod = mat_mul(u, u_inv)
        assert prod == [[int(i == j) for j in range(rows)] for i in range(rows)]
        assert int_det(u) in (1, -1)
        # U*A is diagonal up to column operations: rows past the rank vanish
        ua = mat_mul(u, a)
        nonzero_rows = [i for i in range(rows) if any(ua[i])]
        assert len(nonzero_rows) == result.rank


def test_snf_diag_zero_rows_kill_column_span():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randrange(2, 6)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        result = smith_normal_form(a, rows, cols)
        for i in range(rows):
            if result.diag[i] == 0:
                # row i of U pairs to zero with every column of A
                for j in range(cols):
                    assert sum(result.u[i][k] * a[k][j] for k in range(rows)) == 0


def test_int_det_matches_expansion():
    rng = random.Random(3)

    def brute_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * brute_det(minor)
        return total

    for _ in range(50):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        assert int_det(m) == brute_det(m)


def test_unimodular_inverse():
    assert unimodular_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert unimodular_inverse([[2, 0], [0, 2]]) is None
    assert unimodular_inverse([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


def test_unimodular_inverse_of_random_matrices():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randrange(1, 9)
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n):  # row i += c * row k, or row i negated
            i, k = rng.randrange(n), rng.randrange(n)
            if i == k:
                m[i] = [-x for x in m[i]]
            else:
                c = rng.randrange(-3, 4)
                m[i] = [x + c * y for x, y in zip(m[i], m[k])]
        inverse = unimodular_inverse(m)
        assert mat_mul(m, inverse) == [[int(i == j) for j in range(n)] for i in range(n)]
    refused = 0
    for _ in range(200):
        n = rng.randrange(1, 6)
        m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        if abs(int_det(m)) != 1:
            assert unimodular_inverse(m) is None
            refused += 1
    assert refused > 100
