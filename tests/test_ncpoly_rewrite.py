import functools
import random
from collections import Counter
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcomod import builtin, rewrite, suites
from pcomod.exprs import parse_poly
from pcomod.ncpoly import Alphabet, NCPoly, add_terms, word_str
from pcomod.rewrite import NoStarError, OrderViolation, RewriteSystem, SizeLimitError
from pcomod.scalars import GaussRat, S_ONE, S_Q, S_QINV, S_ZERO, Scalar

from oracles import (
    Z2Model,
    brute_force_confluence,
    normal_forms_all_paths,
    oriented_extension,
    plane_normal_form,
    scanned_one_step_reducts,
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


def _is_gap_word(system, word) -> bool:
    """The word is N1*x*N2 times central letters, for redexes of two rules at
    its two ends whose noncentral parts N1, N2 are nonempty and disjoint and
    whose central parts share a letter: found by scanning every rule at every
    position, not by the ambiguity lister."""
    nc, c = system.alphabet.split_central(word)
    redexes = [(i, r) for r in system.rules if r.lhs_nc and not Counter(r.lhs_central) - Counter(c)
               for i in range(len(nc) - len(r.lhs_nc) + 1) if nc[i : i + len(r.lhs_nc)] == r.lhs_nc]
    return any(i1 == 0 and len(r1.lhs_nc) <= i2 and i2 + len(r2.lhs_nc) == len(nc)
               and set(r1.lhs_central) & set(r2.lhs_central)
               for i1, r1 in redexes for i2, r2 in redexes)


def _assert_agrees_with_brute_force(system, bound):
    """Against the exhaustive search up to the degree of the longest listed
    ambiguity word, 2L - 1 for left sides of at most L letters: the same
    verdict and smallest conflict word, unless that word is a gap word past
    the bound, which the report may miss; a confluent complete report also
    holds one degree further."""
    rep = system.check_local_confluence(bound)
    degree = max(bound, 2 * max(len(r.lhs_word) for r in system.rules) - 1)
    oracle = brute_force_confluence(system, degree)
    words = sorted((c.word for c in oracle.conflicts), key=system.alphabet.key)
    if rep.complete or not words or len(words[0]) <= bound:
        assert rep.confluent == oracle.confluent, (system.rules, bound)
        assert rep.confluent or rep.conflicts[0].word == words[0]
    elif rep.confluent:
        assert _is_gap_word(system, words[0]), (system.rules, bound, words[0])
    else:
        assert rep.conflicts[0].word in words
    if rep.complete and rep.confluent:
        assert brute_force_confluence(system, degree + 1).confluent
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
    system = builtin.build(name).system
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


def test_overlap_past_the_bound_is_checked_beside_a_gap_family():
    """b*a -> a*b and b*a*a -> 1 conflict on b*a*a, one letter past the bound
    2. The gap family of c*z -> 2 makes the report not complete, yet the
    overlap word is listed and its conflict found."""
    al = Alphabet(["a", "b", "c", "z"], central=["z"])
    system = RewriteSystem(al, [
        (("b", "a"), NCPoly.word(al, ("a", "b"))),
        (("b", "a", "a"), NCPoly.one(al)),
        (("c", "z"), NCPoly.const(al, Scalar.of(2))),
    ])
    rep = _assert_agrees_with_brute_force(system, 2)
    assert not rep.complete and rep.conflicts[0].word == ("b", "a", "a")


def test_confluence_report_complete(z2, u1, su, gl, sl):
    for H in (su, sl, z2, u1):
        assert H.system.check_local_confluence(6).complete
    assert not gl.system.check_local_confluence(6).complete
    # every overlap is listed whatever the bound; only a gap family is cut
    assert su.system.check_local_confluence(2).complete


def test_ambiguity_cap_counts_the_overlap_letters(monkeypatch):
    """a^5 -> 0 nests in itself (5 letters) and overlaps itself at four shifts
    (6, 7, 8 and 9 letters): 35 letters, checked at a cap of 35 and refused
    at 34 before any word is normalised."""
    al = Alphabet(["a"])
    system = RewriteSystem(al, [(("a",) * 5, NCPoly.zero(al))])
    monkeypatch.setattr(rewrite, "AMBIGUITY_CAP", 35)
    assert system.check_local_confluence(2).confluent
    monkeypatch.setattr(rewrite, "AMBIGUITY_CAP", 34)
    with pytest.raises(SizeLimitError, match="overlap words exceed 34 letters"):
        system.check_local_confluence(2)


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
def suite_ideals():
    """Every (system, ideal generators, quotient) of RewriteSystem.extend_by_ideal
    that the suites build at their defaults, in the order they build them,
    but the presentations: quotients of the free algebra, which has no rules.
    The memoised builders start afresh, so that what earlier tests built is
    built again here."""
    built = []
    extend = RewriteSystem.extend_by_ideal

    def record(self, gens, name=""):
        quotient = extend(self, gens, name)
        if self.rules:
            built.append((self, list(gens), quotient))
        return quotient

    with pytest.MonkeyPatch.context() as m:
        m.setattr(RewriteSystem, "extend_by_ideal", record)
        for key, builder in vars(builtin).items():
            if getattr(builder, "__module__", None) == builtin.__name__ and hasattr(builder, "__wrapped__"):
                memo = functools.cache if hasattr(builder, "cache_clear") else builtin._memo_by_q
                m.setattr(builtin, key, memo(builder.__wrapped__))
        for suite in suites.SUITES:
            suites.run_suite(suites.SuiteConfig(suite))
    return built


@pytest.fixture(scope="module")
def suite_quotients(suite_ideals):
    """Every quotient system that the suites build."""
    return [quotient for _, _, quotient in suite_ideals]


def test_suite_quotients_are_complete_and_confluent(suite_quotients):
    """Each quotient the suites build has no gap family and no conflict, so a
    nonzero normal form there proves an element nonzero (Bergman's diamond
    lemma)."""
    assert len(suite_quotients) == 7
    for system in suite_quotients:
        rep = system.check_local_confluence(2)
        assert rep.complete and rep.confluent, (system.name, system.rules, rep)


def test_interreduction_keeps_the_ideal(suite_ideals):
    """In each interreduced quotient every ideal generator and every removed
    rule of the system reduces to 0, and on every word up to degree 4 the
    normal form is that of the system with each normalised generator
    oriented into one more rule, wherever that system has no conflict."""
    conflicting = []
    for system, gens, quotient in suite_ideals:
        nf = quotient.normal_form
        kept = set(quotient.rules)
        removed = [NCPoly.word(system.alphabet, r.lhs_word) - r.rhs for r in system.rules if r not in kept]
        assert all(nf(p).is_zero() for p in gens + removed), quotient.name
        oriented = oriented_extension(system, gens)
        if not oriented.check_local_confluence(6).confluent:
            conflicting.append(quotient.name)
            continue
        for w in system.all_words(4):
            p = NCPoly.word(system.alphabet, w)
            assert nf(p) == oriented.normal_form(p), (quotient.name, word_str(w))
    assert conflicting == ["o_u1/<u+1>"]


def _patch_reduced_along_gamma() -> RewriteSystem:
    """The prolonged patch piece modulo gamma(J) for the gamma kernel J: the
    reduced piece of the patch's reducibility verdict, which the verdict no
    longer builds."""
    triv = builtin.patch_prolonged().trivialisation
    psys = triv.covering.pieces[0].comodule.system
    gamma = triv.cleavings[0].j
    return psys.extend_by_ideal([gamma.apply(g) for g in builtin.su_gamma_ideal().gens], name=f"{psys.name}/gamma(J)")


def test_normal_form_idempotent_on_suite_quotients(suite_quotients):
    """nf(nf(p)) = nf(p) for every basis word of degree <= 3 and every product
    of two generators, in every quotient the suites build and in the reduced
    patch, and nf agrees with the worklist oracle there.  In the reduced patch
    pw_patch box su_q2/gamma(J), with G -> 0, the suffix zone turns A*As into
    1 + (-q^2)*G*Gs, which must be reduced again."""
    reduced = _patch_reduced_along_gamma()
    assert reduced.name == "pw_patch box su_q2/gamma(J)"
    assert reduced.normal_form(reduced.gen("G")).is_zero()
    for system in suite_quotients + [reduced]:
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


def test_size_limit_guard(monkeypatch):
    monkeypatch.setattr(rewrite, "TERM_CAP", 3)
    gl = builtin.gl_q2()
    small = RewriteSystem(gl.system.alphabet, [(r.lhs_word, r.rhs) for r in gl.system.rules])
    al = gl.system.alphabet
    with pytest.raises(SizeLimitError):
        small.normal_form(NCPoly.word(al, ("d", "a", "d", "a", "d", "a")))


def test_size_limit_leaves_no_cache_entry(monkeypatch):
    monkeypatch.setattr(rewrite, "TERM_CAP", 3)
    gl = builtin.gl_q2()
    small = RewriteSystem(gl.system.alphabet, [(r.lhs_word, r.rhs) for r in gl.system.rules])
    word = ("d", "a", "d", "a", "d", "a")
    with pytest.raises(SizeLimitError):
        small._nf_word(word)
    assert word not in small._nf_cache


def _fresh(system):
    """A copy of the system whose normal-form cache starts empty."""
    return RewriteSystem(system.alphabet, [(r.lhs_word, r.rhs) for r in system.rules],
                         star=system.star_table, suffix_system=system.suffix_system)


def _assert_agrees_with_worklist(system, words):
    """The memoised normal form equals the path-by-path one, word by word, on
    a copy of the system whose normal-form cache starts empty."""
    fresh = _fresh(system)
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
    system = builtin.build(name).system
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
    system = _fresh(gl.system)
    seen = _matched_words(system, word, RewriteSystem._nf_word)
    assert seen and len(seen) == len(set(seen))
    assert list(system._nf_cache) == [word]
    seen = _matched_words(_fresh(gl.system), word, worklist_normal_form)
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


@pytest.mark.parametrize("name", [n for n in builtin.registry() if n != "su_q2_to_u1"])
def test_redex_scan_agrees_with_scanning_oracle(name):
    """The reducts of _redexes (and _match, its first redex) against the
    former two-loop scan, in the same order, on random words of up to six
    letters, central letters anywhere."""
    system = _builtin_system(name, "formal")
    rng = random.Random(31)
    gens = system.alphabet.gens
    for _ in range(200):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6)))
        got = [NCPoly(system.alphabet, dict(system._apply(*m))) for m in system._redexes(system.alphabet.canon(w))]
        want = scanned_one_step_reducts(system, w)
        assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in want], w
        m = system._match(system.alphabet.canon(w))
        assert (m is None) == (not want), w
        if m is not None:
            assert NCPoly(system.alphabet, dict(system._apply(*m))) == want[0], w


def _random_poly(rng, al, words, scalars):
    """A polynomial on a random subset of words, in a random insertion order."""
    return NCPoly(al, {w: rng.choice(scalars) for w in rng.sample(words, rng.randint(0, len(words)))})


def test_subtraction_matches_adding_the_negation():
    """p - q against p + (-q) on random polynomials that share words, cancel
    terms and are empty: the same terms in the same insertion order, and no
    zero coefficient kept."""
    al = Alphabet(("a", "b"), ())
    words = [w for k in range(3) for w in product("ab", repeat=k)]
    scalars = [S_ONE, -S_ONE, S_Q, S_QINV, S_Q - S_ONE, Scalar.of(GaussRat(2, -1))]
    rng = random.Random(11)
    for _ in range(400):
        p = _random_poly(rng, al, words, scalars)
        q = p if rng.random() < 0.1 else _random_poly(rng, al, words, scalars)
        got, want = p - q, p + (-q)
        assert list(got.terms.items()) == list(want.terms.items())
        assert not any(c.is_zero() for c in got.terms.values())


# ---------------------------------------------------------------------------
# the one accumulator of terms
# ---------------------------------------------------------------------------

# formal-q coefficients that cancel in pairs, and zero
FORMAL = [S_ONE, -S_ONE, S_Q, -S_Q, S_Q - S_ONE, S_ONE - S_Q, (S_Q + S_ONE).inv(), Scalar.of(GaussRat(2, -1))]


def grouped_sum(acc: dict, pairs, scale) -> dict:
    """add_terms' reference: every coefficient grouped by key, each group
    summed with Scalar.__add__, zero sums dropped."""
    groups: dict = {}
    for k, c in [*acc.items(), *((k, c if scale is None else c * scale) for k, c in pairs)]:
        groups.setdefault(k, []).append(c)
    sums = {k: reduce(Scalar.__add__, cs) for k, cs in groups.items()}
    return {k: c for k, c in sums.items() if not c.is_zero()}


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.integers(0, 4), st.sampled_from(FORMAL)),
    st.lists(st.tuples(st.integers(0, 4), st.sampled_from(FORMAL + [S_ZERO])), max_size=10),
    st.integers(0, 3),
    st.sampled_from([None, S_ZERO, S_ONE, -S_ONE, S_QINV - S_Q, (S_Q + S_ONE).inv()]),
)
def test_add_terms_matches_grouped_sums(acc, pairs, cancel, scale):
    """On cancelling pairs, zero coefficients and every kind of scale, the
    accumulator agrees with the grouped sums and keeps no zero."""
    pairs += [(k, -c) for k, c in pairs[:cancel]]
    got = dict(acc)
    assert add_terms(got, pairs, scale) is got
    assert got == grouped_sum(acc, pairs, scale)


def _assert_stored_as_built(p: NCPoly) -> None:
    """No zero coefficient is stored, and every word is canonical: the
    normalising constructor gives p back."""
    assert not any(c.is_zero() for c in p.terms.values())
    assert NCPoly(p.alphabet, p.terms) == p


def test_poly_results_store_only_canonical_nonzero_terms(gl, su):
    """Sums, products and normal forms, built from their terms as they stand,
    equal what the normalising constructor makes of those terms, on random
    polynomials with cancelling coefficients. The prolonged patch's
    system rewrites a suffix zone and has central letters."""
    patch = builtin.patch_prolonged().trivialisation.covering.pieces[0].comodule.system
    rng = random.Random(26)
    for system in (gl.system, su.system, patch):
        al = system.alphabet
        words = system.all_words(3)
        rand = lambda: NCPoly(al, {rng.choice(words): rng.choice(FORMAL) for _ in range(rng.randint(0, 5))})
        for _ in range(40):
            p, q = rand(), rand()
            assert p + q == NCPoly(al, grouped_sum(p.terms, q.terms.items(), None))
            assert p - q == NCPoly(al, grouped_sum(p.terms, q.terms.items(), -S_ONE))
            for r in (p + q, p - q, p - p, p.concat(q), -p, p.scale(S_Q - S_ONE)):
                _assert_stored_as_built(r)
            for r in (system.normal_form(p), system.mul(p, q)):
                _assert_stored_as_built(r)
                # each word is its own normal form: no rule, suffix rule included, rewrites it
                assert all(system.normal_form(NCPoly.word(al, w)) == NCPoly.word(al, w) for w in r.terms)
