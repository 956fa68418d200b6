"""curvature_at on single points keeps the bits it had when the data of
one point ran the term-by-term sums point first.

curvature_from runs one point's metric data as a stack of one, with
the point axis last in the sums that add term by term, and unwraps the
results at the end.  The references below (sha256 of ``tobytes`` of
gamma, ricci and riemann, and the scalar curvature as a float's hex)
were recorded when one point ran without a point axis.
"""

import hashlib

import pytest

from solitonlab import MetricField, curvature_at

CHART = ("x", "y", "z", "w", "v")


def _numbers(seed):
    """A fixed stream of numbers in [-1, 1) from a linear congruential
    generator, so the cases do not depend on a library's random
    streams."""
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        yield (state >> 11) / 2.0 ** 52 - 1.0


def case(n, seed):
    """A metric on n coordinates whose entries mix sin, exp and products
    of every coordinate, with a diagonal far from zero, and a point."""
    numbers = _numbers(seed)
    chart = CHART[:n]
    sign = "-" + "+" * (n - 1) if seed % 2 else "+" * n
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a, b, c = chart[i], chart[j], chart[(i + j + 1) % n]
            body = (f"{next(numbers):.6f}*sin({next(numbers):.6f}*{a} + {c})"
                    f" + {next(numbers):.6f}*{a}*{b}"
                    f" + {next(numbers):.6f}*exp({next(numbers):.6f}*{c})")
            if i == j:
                diagonal = -4 if sign[i] == "-" else 4
                body = f"{diagonal} + 0.3*({body})"
            else:
                body = f"0.1*({body})"
            rows[i][j] = rows[j][i] = body
    point = [round(next(numbers), 6) for _ in range(n)]
    return MetricField.from_rows(chart, rows, sign), point


def digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


# (n, seed): sha256 prefixes of gamma, ricci and riemann, and scalar.hex().
REFERENCES = {
    (2, 1): ('4616ac46924937cd', '7d3da3d6a17103e2',
             '0febdb710a9ea937', '0x1.36ad52bd7a65bp-7'),
    (2, 2): ('de79aa0c03c8d796', '45de8ec20ff168e3',
             '625b839eb686efc1', '0x1.060102f7d7258p-8'),
    (2, 3): ('774d1c61c54f2cd9', '5aac21785600b44e',
             '2af06662516596fb', '-0x1.371489bfd1a30p-7'),
    (2, 4): ('0e7dd4efb04f65ba', 'd1614d877e2a63c4',
             '8c3df4b1086cfc86', '0x1.9f4fae37a35f0p-9'),
    (3, 1): ('3cb901a9661977d1', 'e4ec808c331fd719',
             '6c4521add12820ed', '0x1.3e6b396bab3a2p-7'),
    (3, 2): ('0ab419ce834701b0', '191f4dfba0606b28',
             '61197e52ed999350', '0x1.8db23f7efc69cp-7'),
    (3, 3): ('2edbaa815c773195', '74e96c6847ce7e49',
             '46d3dfb44154a403', '0x1.19eae9e2b9d38p-5'),
    (3, 4): ('128c44d98b7566ae', 'ac5ac9dbf0aa897d',
             '84de52a6fb0ff3f3', '0x1.f67f250931a88p-7'),
    (4, 1): ('38cf63b92d87b056', 'b6a30d5db639893f',
             '0e43ea42dd3307b7', '-0x1.b26a8de90b148p-7'),
    (4, 2): ('d6a071d876e8dc7d', '1241aebe285bff86',
             'e3470f17ebb3c642', '0x1.02d77e5d98b15p-5'),
    (4, 3): ('ac90ea7bb4ca00a2', '160e32fc47fa8885',
             '25953098f76cc2d9', '0x1.332db271d7a96p-6'),
    (4, 4): ('7bacfc2b75703bf7', '0aa0aef86afaea55',
             '1595302914d1544c', '-0x1.6d69a359685bap-8'),
    (5, 1): ('8851de910695496e', '91c7f2285d955a66',
             'c8762df6a74d3462', '-0x1.f613de566cb18p-11'),
    (5, 2): ('a5673202347cb615', '62cddbf1565b2c24',
             '9198dd730746fc1c', '0x1.cb35dd56233c8p-9'),
    (5, 3): ('a93877835f227728', '507580cf6ba34023',
             '1918727b5c082828', '0x1.bf102e96d111cp-7'),
    (5, 4): ('80878ee2adcf3962', '670a13b85f77d94b',
             '2d4bc4cdd2c34fa2', '-0x1.da8f2d6c7c9e4p-8'),
}


@pytest.mark.parametrize("n, seed", sorted(REFERENCES))
def test_one_point_curvature_keeps_its_bits(n, seed):
    metric, point = case(n, seed)
    curv = curvature_at(metric, point)
    assert type(curv.scalar) is float
    assert curv.gamma.shape == (n, n, n) and curv.ricci.shape == (n, n)
    assert curv.gamma.flags.c_contiguous
    got = (digest(curv.gamma), digest(curv.ricci), digest(curv.riemann),
           curv.scalar.hex())
    assert got == REFERENCES[n, seed]

