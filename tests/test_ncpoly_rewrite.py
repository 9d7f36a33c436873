import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcomod import builtin, suites
from pcomod.exprs import parse_poly
from pcomod.ncpoly import Alphabet, NCPoly, word_str
from pcomod.rewrite import NoStarError, OrderViolation, RewriteSystem, SizeLimitError
from pcomod.scalars import GaussRat, S_ONE, S_Q, S_QINV, Scalar

from oracles import (
    Z2Model,
    brute_force_confluence,
    normal_forms_all_paths,
    plane_normal_form,
    toeplitz_normal_word,
    worklist_normal_form,
)


def test_normal_form_gl_examples(gl):
    al = gl.system.alphabet
    # ab = q ba orients to ba -> q^-1 ab
    assert gl.system.normal_form(NCPoly.word(al, ("b", "a"))) == parse_poly("Q^-1*a*b", al)
    # ad = da + (q - q^-1) bc orients to da -> ad - (q - q^-1) bc
    got = gl.system.normal_form(NCPoly.word(al, ("d", "a")))
    want = parse_poly("a*d", al) - parse_poly("b*c", al).scale(S_Q - S_QINV)
    assert got == want
    assert gl.system.normal_form(NCPoly.one(al)) == NCPoly.one(al)


def test_mul_quantum_plane_against_inversion_oracle():
    B = builtin.quantum_plane()
    al = B.alphabet
    x, y = NCPoly.gen(al, "x"), NCPoly.gen(al, "y")
    assert B.mul(x, y) == NCPoly.word(al, ("x", "y"))
    assert B.mul(y, x) == NCPoly.word(al, ("x", "y")).scale(S_QINV)
    rng = random.Random(3)
    for _ in range(200):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(0, 6)))
        a, b, k = plane_normal_form(word)
        got = B.normal_form(NCPoly.word(al, tuple(word)))
        want = NCPoly.word(al, ("x",) * a + ("y",) * b).scale(Scalar.q_power(-k))
        assert got == want


def test_mul_z2_against_group_model(z2):
    al = z2.system.alphabet
    u = NCPoly.gen(al, "u")
    assert z2.system.mul(u, u) == NCPoly.one(al)
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(0, 7)
        got = z2.system.normal_form(NCPoly.word(al, ("u",) * k))
        i = 0
        for _ in range(k):
            i = Z2Model.mul(i, 1)
        want = NCPoly.word(al, ("u",) * i)
        assert got == want


def test_toeplitz_normal_forms_against_stack_model():
    T = builtin.toeplitz_system()
    al = T.alphabet
    rng = random.Random(11)
    for _ in range(300):
        word = tuple(rng.choice(["s", "ss"]) for _ in range(rng.randint(0, 7)))
        a, b = toeplitz_normal_word(word)
        got = T.normal_form(NCPoly.word(al, word))
        assert got == NCPoly.word(al, ("s",) * a + ("ss",) * b)


def test_order_violation_reported():
    al = Alphabet(["a", "b"])
    ok = NCPoly.word(al, ("b", "a"))
    with pytest.raises(OrderViolation):
        RewriteSystem(al, [(("a", "b"), ok)])  # rhs ba > lhs ab
    # and the empty left side is rejected outright
    with pytest.raises(OrderViolation):
        RewriteSystem(al, [((), NCPoly.one(al))])


def test_confluence_reports(z2, su):
    assert z2.system.check_local_confluence(4).confluent
    oracle = brute_force_confluence(su.system, 6)
    assert oracle.confluent and oracle.words_checked > 1000
    rep = su.system.check_local_confluence(6)
    assert rep.confluent and rep.words_checked == 15


def test_confluence_conflict_detected():
    al = Alphabet(["a", "b"])
    one = NCPoly.one(al)
    sys = RewriteSystem(
        al,
        [(("b", "a"), NCPoly.word(al, ("a", "b"))), (("b", "a", "a"), one)],
    )
    rep = sys.check_local_confluence(3)
    assert not rep.confluent
    assert any(len(c.word) == 3 for c in rep.conflicts)


def _assert_agrees_with_brute_force(system, bound):
    """Same verdict and same smallest conflict word as the exhaustive search;
    a confluent complete report also holds one degree past its bound."""
    rep = system.check_local_confluence(bound)
    oracle = brute_force_confluence(system, bound)
    assert rep.confluent == oracle.confluent, (system.rules, bound)
    if not rep.confluent:
        smallest = min((c.word for c in oracle.conflicts), key=system.alphabet.key)
        assert rep.conflicts[0].word == smallest
    elif rep.complete:
        assert brute_force_confluence(system, bound + 1).confluent
    return rep


@pytest.mark.parametrize("q", ["formal", 3])
@pytest.mark.parametrize("name", builtin.HOPF_NAMES)
def test_ambiguity_check_agrees_on_builtins(name, q):
    system = builtin.build(name, q).system
    for bound in range(2, 7):
        assert _assert_agrees_with_brute_force(system, bound).confluent


@pytest.mark.parametrize("name", builtin.COMODULE_NAMES)
def test_ambiguity_check_agrees_on_comodule_builtins(name):
    """Includes plane_gl_smash, whose normal forms pass through a suffix system."""
    obj = builtin.build(name)
    system = (obj[0] if isinstance(obj, tuple) else obj).system
    for bound in range(2, 5):
        assert _assert_agrees_with_brute_force(system, bound).confluent


def _scaled_copies(system):
    """The rule table with one right-side coefficient doubled, every way."""
    al = system.alphabet
    base = [(r.lhs_word, r.rhs) for r in system.rules]
    for i, (lhs, rhs) in enumerate(base):
        for w in rhs.terms:
            terms = dict(rhs.terms)
            terms[w] = terms[w] * Scalar.of(2)
            rules = list(base)
            rules[i] = (lhs, NCPoly(al, terms))
            yield RewriteSystem(al, rules)


@pytest.mark.parametrize("name", ["su_q2", "sl_q2", "gl_q2", "o_u1"])
def test_ambiguity_check_agrees_on_corrupted_tables(name):
    verdicts = [
        _assert_agrees_with_brute_force(system, 4).confluent
        for system in _scaled_copies(builtin.build(name).system)
    ]
    if name != "o_u1":  # u*ui -> 2 is its only rule and has no partner to conflict with
        assert not all(verdicts)


@st.composite
def small_systems(draw):
    """1-3 order-decreasing rules over 2-3 letters, 0-2 of them central."""
    n = draw(st.integers(2, 3))
    gens = ["a", "b", "c"][:n]
    al = Alphabet(gens, gens[n - draw(st.integers(0, 2)):])
    words = sorted(
        {al.canon(w) for k in range(4) for w in product(gens, repeat=k)}, key=al.key
    )
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(st.sampled_from(words[1:]))
        smaller = [w for w in words if al.key(w) < al.key(lhs)]
        rhs = draw(st.dictionaries(st.sampled_from(smaller), st.sampled_from([-1, 1, 2]), max_size=2))
        rules.append((lhs, NCPoly(al, {w: Scalar.of(c) for w, c in rhs.items()})))
    return RewriteSystem(al, rules)


@settings(max_examples=300, deadline=None)
@given(small_systems(), st.integers(2, 5))
def test_ambiguity_check_agrees_on_random_systems(system, bound):
    _assert_agrees_with_brute_force(system, bound)


def test_central_letter_shared_by_disjoint_redexes():
    """c*z -> 2 with z central: the two c's of c*a*c*z compete for one z, an
    ambiguity no overlap of noncentral parts shows."""
    al = Alphabet(["a", "c", "z"], central=["z"])
    system = RewriteSystem(al, [(("c", "z"), NCPoly.const(al, Scalar.of(2)))])
    rep = _assert_agrees_with_brute_force(system, 4)
    assert not rep.confluent and not rep.complete
    assert rep.conflicts[0].word == ("c", "a", "c", "z")


def test_confluence_report_complete(z2, u1, su, gl, sl):
    for H in (su, sl, z2, u1):
        assert H.system.check_local_confluence(6).complete
    assert not gl.system.check_local_confluence(6).complete
    assert not su.system.check_local_confluence(2).complete


def test_duplicate_rules_dropped(u1, gl):
    assert len(u1.system.rules) == 1
    assert [word_str(r.lhs_word) for r in gl.system.rules].count("b*c*Di") == 1
    al = Alphabet(["x", "y"])
    yx, xy = NCPoly.word(al, ("y", "x")), NCPoly.word(al, ("x", "y"))
    system = RewriteSystem(al, [(("y", "x"), xy), (("y", "y"), yx), (("y", "x"), xy)])
    assert [r.lhs_word for r in system.rules] == [("y", "x"), ("y", "y")]


def test_star_su_examples(su):
    al = su.system.alphabet
    ag = NCPoly.word(al, ("a", "g"))
    got = su.system.star(ag)
    # (alpha gamma)^* = gamma^* alpha^*, a normal-form basis word here
    assert got == NCPoly.word(al, ("gs", "as"))
    assert su.system.star(NCPoly.one(al)) == NCPoly.one(al)
    # star o star = id after normal form
    assert su.system.star(got) == su.system.normal_form(ag)


def test_star_toeplitz_antilinear():
    T = builtin.toeplitz_system()
    al = T.alphabet
    i_s = NCPoly.gen(al, "s").scale(Scalar.i())
    assert T.star(i_s) == NCPoly.gen(al, "ss").scale(-Scalar.i())
    B = builtin.quantum_plane()
    with pytest.raises(NoStarError):
        B.star(NCPoly.gen(B.alphabet, "x"))


def test_star_involution_randomized(su):
    """star o star = id on 1000 random degree-<= 4 polynomials for every
    star-equipped builtin."""
    rng = random.Random(13)
    starred = [su.system, builtin.c_z2().system, builtin.o_u1().system,
               builtin.toeplitz_system(), builtin.pw_patch()[0].system]
    per = 1000 // len(starred)
    for sysm in starred:
        al = sysm.alphabet
        words = sysm.basis_words(4)
        for _ in range(per):
            terms = {}
            for w in rng.sample(words, k=min(4, len(words))):
                terms[w] = Scalar.of(GaussRat(rng.randint(-2, 2), rng.randint(-2, 2)))
            p = sysm.normal_form(NCPoly(al, terms))
            assert sysm.star(sysm.star(p)) == p


def test_normal_form_idempotent_and_associative(gl):
    rng = random.Random(17)
    al = gl.system.alphabet
    words = gl.system.all_words(3)
    for _ in range(60):
        ws = rng.sample(words, k=3)
        p, r, t = (NCPoly.word(al, w) for w in ws)
        nf = gl.system.normal_form
        assert nf(nf(p.concat(r))) == nf(p.concat(r))
        assert nf(gl.system.mul(gl.system.mul(p, r), t)) == nf(gl.system.mul(p, gl.system.mul(r, t)))


def _builtin_system(name, q):
    obj = builtin.build(name, q)
    obj = obj[0] if isinstance(obj, tuple) else obj
    return obj if isinstance(obj, RewriteSystem) else obj.system


@pytest.mark.parametrize("q", ["formal", 1, 3])
@pytest.mark.parametrize("name", [n for n in builtin.registry() if n != "su_q2_to_u1"])
def test_normal_form_idempotent_on_every_word(name, q):
    """nf(nf(w)) = nf(w) for every word of degree <= 4.  In plane_gl_smash the
    suffix zone (gl_q2, where Di is central) is canonicalised before it is
    reduced: b*Di*a is b*a*Di there, whose normal form is (1/q)*a*b*Di."""
    system = _builtin_system(name, q)
    nf = system.normal_form
    for w in system.all_words(4):
        p = nf(NCPoly.word(system.alphabet, w))
        assert nf(p) == p, (name, word_str(w), p)


@pytest.fixture(scope="module")
def suite_quotients():
    """Every quotient system (RewriteSystem.extend_by_ideal) that the suites
    build at their defaults, in the order they build them."""
    built = []
    extend = RewriteSystem.extend_by_ideal

    def record(self, gens, name=""):
        built.append(extend(self, gens, name))
        return built[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(RewriteSystem, "extend_by_ideal", record)
        for suite in suites.SUITES:
            suites.run_suite(suites.SuiteConfig(suite))
    return built


def test_normal_form_idempotent_on_suite_quotients(suite_quotients):
    """nf(nf(p)) = nf(p) for every basis word of degree <= 3 and every product
    of two generators, in every quotient the suites build, and nf agrees with
    the worklist oracle there.  In pw_patch box su_q2/gamma(J), with G -> 0, the
    suffix zone turns A*As into 1 + (-q^2)*G*Gs, which must be reduced again."""
    assert "pw_patch box su_q2/gamma(J)" in {system.name for system in suite_quotients}
    for system in suite_quotients:
        nf = system.normal_form
        gens = [system.gen(g) for g in system.alphabet.gens]
        polys = [NCPoly.word(system.alphabet, w) for w in system.basis_words(3)]
        polys += [x.concat(y) for x in gens for y in gens]
        for p in polys:
            once = nf(p)
            assert nf(once) == once, (system.name, p, once)
            want = NCPoly(system.alphabet, {})
            for w, c in p.terms.items():
                want = want + worklist_normal_form(system, system.alphabet.canon(w)).scale(c)
            assert once == want, (system.name, p)


def test_all_paths_oracle_agrees(su):
    rng = random.Random(19)
    words = [w for w in su.system.all_words(4) if len(w) >= 2]
    for w in rng.sample(words, k=25):
        finals = normal_forms_all_paths(su.system, w)
        assert len(finals) == 1
        nf = su.system.normal_form(NCPoly.word(su.system.alphabet, w))
        assert finals == {frozenset(nf.terms.items())}


def test_size_limit_guard():
    gl = builtin.gl_q2()
    small = RewriteSystem(
        gl.system.alphabet,
        [(r.lhs_word, r.rhs) for r in gl.system.rules],
        term_cap=3,
    )
    al = gl.system.alphabet
    with pytest.raises(SizeLimitError):
        small.normal_form(NCPoly.word(al, ("d", "a", "d", "a", "d", "a")))


def test_size_limit_leaves_no_cache_entry():
    gl = builtin.gl_q2()
    small = RewriteSystem(
        gl.system.alphabet, [(r.lhs_word, r.rhs) for r in gl.system.rules], term_cap=3
    )
    word = ("d", "a", "d", "a", "d", "a")
    with pytest.raises(SizeLimitError):
        small._nf_word(word)
    assert word not in small._nf_cache


def _assert_agrees_with_worklist(system, words):
    """The memoised normal form equals the path-by-path one, word by word, on
    a copy of the system whose normal-form cache starts empty."""
    fresh = system.extend([])
    for w in words:
        assert fresh._nf_word(w) == worklist_normal_form(system, w), (system.rules, w)


@pytest.mark.parametrize("q", ["formal", 3])
@pytest.mark.parametrize("name", builtin.HOPF_NAMES)
def test_normal_form_agrees_with_worklist_on_builtins(name, q):
    system = builtin.build(name, q).system
    words = system.all_words(5)
    _assert_agrees_with_worklist(system, random.Random(23).sample(words, min(150, len(words))))


@pytest.mark.parametrize("name", builtin.COMODULE_NAMES)
def test_normal_form_agrees_with_worklist_on_comodule_builtins(name):
    """Includes plane_gl_smash, whose normal forms pass through a suffix system."""
    obj = builtin.build(name)
    system = (obj[0] if isinstance(obj, tuple) else obj).system
    words = system.all_words(4)
    _assert_agrees_with_worklist(system, random.Random(29).sample(words, min(150, len(words))))


@pytest.mark.parametrize("name", ["su_q2", "sl_q2", "gl_q2", "o_u1"])
def test_normal_form_agrees_with_worklist_on_corrupted_tables(name):
    """Non-confluent tables: the result depends on the reduction path, so it
    must follow the same leftmost steps as the oracle."""
    rng = random.Random(31)
    for system in _scaled_copies(builtin.build(name).system):
        words = system.all_words(4)
        _assert_agrees_with_worklist(system, rng.sample(words, min(40, len(words))))


@settings(max_examples=300, deadline=None)
@given(small_systems(), st.data())
def test_normal_form_agrees_with_worklist_on_random_systems(system, data):
    words = system.all_words(5)
    _assert_agrees_with_worklist(system, data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=5)))


def _matched_words(system, word, normal_form):
    """The words ``normal_form(system, word)`` passes to ``_match``."""
    seen = []
    match = system._match

    def wrapped(w):
        seen.append(w)
        return match(w)

    system._match = wrapped
    normal_form(system, word)
    return seen


def test_normal_form_matches_each_word_once(gl):
    """One top-level call on a fresh system matches every word at most once,
    where the path-by-path oracle repeats words; only the requested word is
    kept in the persistent cache."""
    word = ("d", "d", "c", "b", "a", "a")
    system = gl.system.extend([])
    seen = _matched_words(system, word, RewriteSystem._nf_word)
    assert seen and len(seen) == len(set(seen))
    assert list(system._nf_cache) == [word]
    seen = _matched_words(gl.system.extend([]), word, worklist_normal_form)
    assert len(seen) > len(set(seen))
    # c -> a + b puts a on the stack before b -> a reaches it a second time
    al = Alphabet(["a", "b", "c"])
    a, b = NCPoly.gen(al, "a"), NCPoly.gen(al, "b")
    system = RewriteSystem(al, [(("c",), a + b), (("b",), a)])
    seen = _matched_words(system, ("c",), RewriteSystem._nf_word)
    assert sorted(seen) == [("a",), ("b",), ("c",)]
    assert system._nf_cache[("c",)] == a.scale(Scalar.of(2))


def test_central_canonicalization(gl):
    al = gl.system.alphabet
    assert al.canon(("Di", "a", "Di", "b")) == ("a", "b", "Di", "Di")
    # determinant matching sees through interleaved words
    w = gl.system.normal_form(NCPoly.word(al, ("b", "c", "c", "Di")))
    assert w == parse_poly("Q^-2*a*c*d*Di - Q^-1*c", al)


def test_basis_words_degree_counts(su):
    # PBW count: words g^k gs^l a^m or g^k gs^l as^m
    words = su.system.basis_words(3)
    expected = sum(2 * (d + 1) * (d + 2) // 2 - (d + 1) for d in range(4))
    assert len(words) == expected
