import itertools
import math

import pytest

from orecodes.errors import DomainError, GuardError
from orecodes.gf import GF, Automorphism, FiniteField, InnerDerivation, factorize, is_prime, parse_element, parse_field


def brute_field_tables(q, k, modulus):
    """Independent oracle: polynomial arithmetic with coefficient lists."""

    def mul(a, b):
        out = [0] * (2 * k)
        for i in range(k):
            for j in range(k):
                out[i + j] = (out[i + j] + a[i] * b[j]) % q
        # reduce by modulus (monic degree k)
        for top in range(2 * k - 1, k - 1, -1):
            c = out[top]
            if c:
                for j in range(k + 1):
                    out[top - k + j] = (out[top - k + j] - c * modulus[j]) % q
        return tuple(out[:k])

    def add(a, b):
        return tuple((x + y) % q for x, y in zip(a, b))

    return add, mul


@pytest.mark.parametrize("q,k", [(2, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_arithmetic_matches_polynomial_oracle(q, k):
    F = GF(q, k)
    add, mul = brute_field_tables(q, k, F.modulus + [0] * (k + 1 - len(F.modulus)))

    def coeffs(z):
        return tuple(F._code_digits(z.code))

    els = F.elements()
    for a, b in itertools.product(els, els):
        assert coeffs(a + b) == add(coeffs(a), coeffs(b))
        assert coeffs(a * b) == mul(coeffs(a), coeffs(b))


def test_primitive_element_is_least_of_full_order():
    """For every field with q^k <= 1024, gen_code equals a search that computes
    each candidate's order with the polynomial oracle."""
    for q in filter(is_prime, range(2, 1025)):
        for k in range(1, 11):
            if q ** k > 1024:
                break
            F = GF(q, k)
            _, mul = brute_field_tables(q, k, F.modulus + [0] * (k + 1 - len(F.modulus)))
            one = (1,) + (0,) * (k - 1)

            def order(code):
                z = tuple(F._code_digits(code))
                acc, n = z, 1
                while acc != one:
                    acc, n = mul(acc, z), n + 1
                return n

            least = next((c for c in range(2, F.size) if order(c) == F.size - 1), 1)
            assert F.gen_code == least, (q, k)


def per_entry_tables(q, k):
    """The reference build: the least irreducible modulus, the least code of
    full order, then one digit-list product per exp entry and one digit-list
    sum per Zech entry.  Returns (exp, zech, gen_code, modulus, code -> index)."""
    F = FiniteField.__new__(FiniteField)
    F.q, F.k = q, k
    F.modulus = F._least_irreducible()
    t = q ** k - 1
    primes = [p for p in range(2, t + 1) if t % p == 0 and is_prime(p)]
    z0 = next((c for c in range(2, q ** k) if all(F._code_pow(c, t // p) != 1 for p in primes)), 1)
    exp = [1] * t
    for e in range(1, t):
        exp[e] = F._code_mul(exp[e - 1], z0)
    log = {c: e for e, c in enumerate(exp)}

    def add(a, b):
        return F._digits_code([(x + y) % q for x, y in zip(F._code_digits(a), F._code_digits(b))])

    zech = [log.get(add(c, 1)) for c in exp]
    code_to_idx = {0: 0, **{c: e + 1 for e, c in enumerate(exp)}}
    return exp, zech, z0, F.modulus, code_to_idx


def built_tables(F):
    return F._exp, F._zech, F.gen_code, F.modulus, dict(enumerate(F._code_to_idx))


def test_tables_equal_per_entry_build_for_small_fields():
    for q in filter(is_prime, range(2, 1025)):
        for k in range(1, 11):
            if q ** k > 1024:
                break
            assert built_tables(GF(q, k)) == per_entry_tables(q, k), (q, k)


@pytest.mark.parametrize("q,k", [(2, 12), (2, 14), (3, 8), (5, 6)])
def test_tables_equal_per_entry_build_for_large_fields(q, k):
    assert built_tables(GF(q, k)) == per_entry_tables(q, k)


def test_primitive_search_skips_the_prime_subfield():
    # the codes below q = 251 lie in the prime subfield, whose orders divide 250 < t
    assert GF(251, 2).gen_code == 256


def test_gf4_matches_w_relations():
    F = GF(2, 2)
    w = F.gen
    assert w ** 2 == w + F.one  # w^2 = w + 1
    assert w ** 3 == F.one
    assert w * w == w ** 2
    assert w ** 2 + F.one == w


def test_gf2_prime_field():
    F = GF(2, 1)
    assert F.size == 2
    assert sorted(z.idx for z in F.elements()) == [0, 1]
    assert F.one + F.one == F.zero


def test_gf9_multiplicative_group_cyclic():
    F = GF(3, 2)
    powers = {F.gen ** e for e in range(8)}
    assert len(powers) == 8
    assert F.gen ** 8 == F.one


@pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_exp_log_inverse_and_identities(q, k):
    F = GF(q, k)
    for z in F.elements():
        assert z + F.zero == z
        assert z * F.one == z
        if z:
            assert z * z.inverse() == F.one
            assert F.gen ** (z.idx - 1) == z


def test_zero_inversion_raises():
    F = GF(2, 2)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_build_field_rejects_bad_parameters():
    with pytest.raises(DomainError):
        GF(4, 1)
    with pytest.raises(DomainError):
        GF(2, 0)
    with pytest.raises(GuardError):
        GF(3, 16)
    with pytest.raises(GuardError):  # the size is checked before q is tested for primality
        GF(1000, 3)


def test_frobenius_on_gf4():
    F = GF(2, 2)
    phi = Automorphism(F, 1)
    w = F.gen
    assert phi(w) == w ** 2
    assert phi(F.zero) == F.zero and phi(F.one) == F.one
    # phi^2 is the identity on GF(4)
    for z in F.elements():
        assert phi(z, 2) == z
    assert phi.order == 2


def test_sigma_order_and_negative_powers():
    F = GF(2, 4)
    for l in range(4):
        s = Automorphism(F, l)
        assert s.order == 4 // math.gcd(l, 4) if l else 1
        for z in F.elements():
            assert s(z, s.order) == z
            assert s(s(z), -1) == z


@pytest.mark.parametrize("q,k,l,size", [(2, 2, 1, 2), (2, 2, 0, 4), (2, 4, 2, 4), (3, 2, 1, 3)])
def test_fixed_subfield_size_and_closure(q, k, l, size):
    F = GF(q, k)
    s = Automorphism(F, l)
    sub = s.fixed_subfield()
    assert len(sub) == size == q ** math.gcd(l, k)
    subset = set(sub)
    for a, b in itertools.product(sub, sub):
        assert a + b in subset and a * b in subset
        if b:
            assert a / b in subset


@pytest.mark.parametrize("q,k", [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 6)])
def test_fixed_subfield_closed_form_matches_the_scan(q, k):
    # reference: box every element and keep those sigma fixes, in index order
    F = GF(q, k)
    for l in range(k):
        s = Automorphism(F, l)
        scan = [z.idx for z in F.elements() if s(z) == z]
        assert s.fixed_subfield_i() == scan
        assert [z.idx for z in s.fixed_subfield()] == scan


def test_gf16_fixed_subfield_via_z4_eq_z():
    F = GF(2, 4)
    s = Automorphism(F, 2)
    expected = {z for z in F.elements() if z ** 4 == z}
    assert set(s.fixed_subfield()) == expected
    assert len(expected) == 4


@pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (3, 2)])
def test_inner_derivation_laws_exhaustive(q, k):
    F = GF(q, k)
    for l in range(k):
        sigma = Automorphism(F, l)
        for w in F.elements():
            delta = InnerDerivation(sigma, w)
            for z1, z2 in itertools.product(F.elements(), F.elements()):
                assert delta(z1 + z2) == delta(z1) + delta(z2)
                assert delta(z1 * z2) == sigma(z1) * delta(z2) + delta(z1) * z2


def test_identity_sigma_forces_zero_derivation():
    F = GF(2, 2)
    ident = Automorphism(F, 0)
    delta = InnerDerivation(ident, F.gen)
    assert delta.is_zero
    for z in F.elements():
        assert delta(z) == F.zero


def test_factorize_is_the_prime_factorization():
    for n in range(2, 3000):
        f = factorize(n)
        assert all(is_prime(p) and e > 0 for p, e in f.items()) and math.prod(p ** e for p, e in f.items()) == n
        assert is_prime(n) == (n > 1 and all(n % p for p in range(2, n)))
    assert factorize(0) == factorize(1) == {} and not is_prime(0) and not is_prime(1)


def test_parse_field_literals():
    assert parse_field("GF(4)") is GF(2, 2)
    assert parse_field("GF(2^3)") is GF(2, 3)
    assert parse_field("GF(9)") is GF(3, 2)
    with pytest.raises(DomainError):
        parse_field("GF(6)")


def test_element_io_round_trip():
    F = GF(2, 2)
    w = F.gen
    assert str(w) == "g"
    assert str(w ** 2) == "g^2"
    assert str(F.zero) == "0" and str(F.one) == "1"
    assert parse_element(F, "w^2") == w ** 2
    assert parse_element(F, "g^2") == w ** 2
    assert parse_element(F, "1") == F.one
    for z in F.elements():
        assert parse_element(F, str(z)) == z


def test_parse_polynomial_form():
    F = GF(3, 2)
    a = F.from_code(3)  # residue of the modulus variable
    assert parse_element(F, "1+2*a") == F.one + F.from_int(2) * a
    assert parse_element(F, "a^1") == a
    assert parse_element(F, "2") == F.from_int(2)


def test_deterministic_modulus_choice():
    assert GF(2, 3).modulus == [1, 1, 0, 1]  # x^3 + x + 1
    assert GF(2, 2).modulus == [1, 1, 1]
    assert GF(3, 2).modulus == [1, 0, 1]  # x^2 + 1
    assert GF(2, 4).modulus == [1, 1, 0, 0, 1]  # x^4 + x + 1
