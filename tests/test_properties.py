"""Property tests: exact group law, the kernel's inversion symmetries, spectrum file round trip."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qcheat.group import GroupPoint, group_inverse, group_mul, identity_point, make_quaternionic_spec
from qcheat.invariants import SpectrumFile
from qcheat.kernel import heat_kernel_point

SPECS = {n: make_quaternionic_spec(n) for n in (1, 2)}

# derandomized and bounded: the file stays reproducible and under a few seconds
FAST = settings(max_examples=60, deadline=None, database=None, derandomize=True)
KERNEL = settings(max_examples=40, deadline=None, database=None, derandomize=True)

exact = st.fractions(min_value=-9, max_value=9, max_denominator=12)
coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def exact_points(draw, spec, k):
    return tuple(
        GroupPoint(
            x=tuple(draw(exact) for _ in range(spec.m)),
            z=tuple(draw(exact) for _ in range(spec.r)),
        )
        for _ in range(k)
    )


@st.composite
def float_points(draw, spec):
    x = tuple(draw(coord) for _ in range(spec.m))
    z = tuple(2.0 * draw(coord) for _ in range(spec.r))
    return GroupPoint(x=x, z=z)


@FAST
@given(st.data(), st.sampled_from(sorted(SPECS)))
def test_group_law_associative_exact(data, n):
    spec = SPECS[n]
    a, b, c = data.draw(exact_points(spec, 3))
    assert group_mul(spec, group_mul(spec, a, b), c) == group_mul(spec, a, group_mul(spec, b, c))


@FAST
@given(st.data(), st.sampled_from(sorted(SPECS)))
def test_group_inverse_exact(data, n):
    spec = SPECS[n]
    (h,) = data.draw(exact_points(spec, 1))
    e = identity_point(spec)
    assert group_mul(spec, h, group_inverse(h)) == e
    assert group_mul(spec, group_inverse(h), h) == e


def _agree(a, b):
    return abs(a.value - b.value) <= a.err_estimate + b.err_estimate


@KERNEL
@given(st.floats(min_value=0.25, max_value=2.0), float_points(SPECS[1]))
def test_kernel_inversion_symmetry(t, g):
    """p(t, 0, g) = p(t, 0, g^{-1}) within the summed error bounds."""
    spec = SPECS[1]
    inv = group_inverse(g)
    direct = heat_kernel_point(spec, t, g.x, g.z)
    inverse = heat_kernel_point(spec, t, inv.x, inv.z)
    assert _agree(direct, inverse)


@KERNEL
@given(st.floats(min_value=0.25, max_value=2.0), float_points(SPECS[1]), float_points(SPECS[1]))
def test_kernel_swap_symmetry(t, h, hp):
    """p(t, h, h') = p(t, h', h), i.e. p(t, 0, h^{-1} h') = p(t, 0, h'^{-1} h), within the summed error bounds."""
    spec = SPECS[1]
    g = group_mul(spec, group_inverse(h), hp)
    gp = group_mul(spec, group_inverse(hp), h)
    forward = heat_kernel_point(spec, t, g.x, g.z)
    backward = heat_kernel_point(spec, t, gp.x, gp.z)
    assert _agree(forward, backward)


@st.composite
def spectra(draw):
    eigenvalues = draw(
        st.lists(st.floats(min_value=0.0, max_value=1e12, allow_nan=False), min_size=1, max_size=30)
    )
    multiplicities = draw(
        st.lists(
            st.integers(min_value=1, max_value=10**6),
            min_size=len(eigenvalues),
            max_size=len(eigenvalues),
        )
    )
    return SpectrumFile(tuple(sorted(eigenvalues)), tuple(multiplicities))


@FAST
@given(spectra())
def test_spectrum_file_round_trip(sp):
    """SpectrumFile.parse(f.dump()) reproduces f: every float and count survives the text form."""
    assert SpectrumFile.parse(sp.dump()) == sp
