"""Oriented rewriting over noncommutative words with ambiguity-based confluence checking."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Sequence

from .ncpoly import EMPTY, Alphabet, NCPoly, Word, add_terms, word_str
from .scalars import S_ONE, Scalar


TERM_CAP = 100_000  # the most terms a reduction or a parsed power may hold
AMBIGUITY_CAP = 2_000_000  # the most letters of overlap words one confluence check lists


class OrderViolation(ValueError):
    """A rule's right-hand side is not strictly smaller in the monomial order."""


class SizeLimitError(RuntimeError):
    """Intermediate term count exceeded the configured cap."""


class UnitIdealError(ValueError):
    """An ideal holds a nonzero constant, so its quotient is the zero algebra."""


class NoStarError(ValueError):
    """The rewrite system carries no star table."""


@dataclass(frozen=True)
class Rule:
    lhs_nc: Word
    lhs_central: tuple  # sorted tuple of central generator names (with multiplicity)
    rhs: NCPoly

    @property
    def lhs_word(self) -> Word:
        return self.lhs_nc + self.lhs_central

    def __repr__(self):
        return f"{word_str(self.lhs_word)} -> {self.rhs!r}"


def _holds_central(c: Word, rule: Rule) -> bool:
    """The central part c of a word holds the central part of the rule's left side."""
    return all(c.count(g) >= k for g, k in Counter(rule.lhs_central).items())


@dataclass
class Conflict:
    word: Word
    result1: NCPoly
    result2: NCPoly

    def __repr__(self):
        return f"CONFLICT({word_str(self.word)}: {self.result1!r} vs {self.result2!r})"


@dataclass
class ConfluenceReport:
    degree_bound: int
    words_checked: int
    conflicts: list[Conflict] = field(default_factory=list)
    # no gap family: the checked words are every ambiguity of any degree, so a
    # confluent report certifies confluence beyond the bound
    complete: bool = False

    @property
    def confluent(self) -> bool:
        return not self.conflicts


class RewriteSystem:
    """Alphabet + oriented rules (+ optional star involution, suffix canonicalizer).

    Every rule strictly decreases the degree-lexicographic order (checked at
    construction), so exhaustive leftmost reduction terminates on any input.
    A rule whose left side contains central generators matches them anywhere
    in the word (the word monoid is the free product with a central part).
    """

    def __init__(
        self,
        alphabet: Alphabet,
        rules: Sequence[tuple[Word, NCPoly]] = (),
        star: dict[str, NCPoly] | None = None,
        name: str = "",
        suffix_system: "RewriteSystem | None" = None,
    ):
        self.alphabet = alphabet
        self.name = name
        self.star_table = star
        self.suffix_system = suffix_system
        self.suffix_gens = frozenset(suffix_system.alphabet.gens) if suffix_system else frozenset()
        self.rules: list[Rule] = []
        self._nf_cache: dict[Word, NCPoly] = {}
        # index plain rules by first noncentral letter for fast matching
        self._by_first: dict[str, list[Rule]] = {}
        self._central_only: list[Rule] = []
        for lhs, rhs in rules:
            self._add(lhs, rhs)

    # -- construction ------------------------------------------------------
    def _add(self, lhs: Word, rhs: NCPoly) -> None:
        """Append and index the rule lhs -> rhs unless it is there; drop the cached normal forms."""
        rule = self._make_rule(tuple(lhs), rhs)
        bucket = self._by_first.setdefault(rule.lhs_nc[0], []) if rule.lhs_nc else self._central_only
        if rule not in bucket:  # x*Di = 1 and Di*x = 1 canonicalise alike; copies share a bucket
            self.rules.append(rule)
            bucket.append(rule)
            self._nf_cache.clear()

    def _make_rule(self, lhs: Word, rhs: NCPoly) -> Rule:
        a = self.alphabet
        lhs = a.canon(lhs)
        if not lhs:
            raise OrderViolation("empty word cannot be a rule left side")
        rhs = NCPoly(a, rhs.terms)
        lk = a.key(lhs)
        for w in rhs.terms:
            if not a.key(w) < lk:
                raise OrderViolation(
                    f"rule {word_str(lhs)} -> {rhs!r}: right side term "
                    f"{word_str(w)} is not order-smaller"
                )
        nc, c = a.split_central(lhs)
        return Rule(nc, c, rhs)

    def extend_by_ideal(self, gens: Sequence[NCPoly], name: str = "") -> "RewriteSystem":
        """The quotient by the two-sided ideal of ``gens``, interreduced
        (Bergman 1978, section 5; Mora, Theor. Comput. Sci. 134, 1994): each
        queued element is normalised and, unless zero, oriented into a rule;
        each rule whose left side that rule reduces (a longer one, as the new
        left side is irreducible) is removed and its difference lhs - rhs
        queued again; right sides are normalised last. The ideal of rules and
        queue never changes: a new rule differs from its queued element by a
        combination of rules. The loop ends: a step keeps or lowers the
        multiset of their leading words in the deglex well-order, and when it
        keeps it, the popped word now leads a rule and the moved ones are
        reducible by it, so fewer queued leading words are irreducible.
        ``UnitIdealError`` when an element reduces to a nonzero constant, so
        that the quotient is zero. A step rebuilds the system only when it
        removes a rule."""
        def build(rules):
            return RewriteSystem(self.alphabet, rules, star=self.star_table, name=name, suffix_system=self.suffix_system)

        queue, system = list(gens), build([(r.lhs_word, r.rhs) for r in self.rules])
        while queue:
            p = queue.pop(0)
            nf = system.normal_form(p)
            if nf.is_zero():
                continue
            lead = nf.leading_word()
            if lead == EMPTY:
                raise UnitIdealError(f"{p!r} reduces to the nonzero constant {nf!r}")
            rule = (lead, NCPoly.word(self.alphabet, lead) - nf.scale(nf.terms[lead].inv()))  # sets nf to 0
            reduces = RewriteSystem(self.alphabet, [rule])._match
            moved = [r for r in system.rules if len(r.lhs_word) > len(lead) and reduces(r.lhs_word)]
            queue += [NCPoly.word(self.alphabet, r.lhs_word) - r.rhs for r in moved]
            if moved:
                system = build([(r.lhs_word, r.rhs) for r in system.rules if r not in moved])
            system._add(*rule)
        return build([(r.lhs_word, system.normal_form(r.rhs)) for r in system.rules])

    def renamed(self, names: dict[str, str], name: str = "") -> "RewriteSystem":
        """The same presentation with each generator g called ``names[g]``,
        in the same precedence, central set and rule order."""
        alpha = Alphabet(
            tuple(names[g] for g in self.alphabet.gens),
            central=tuple(names[g] for g in self.alphabet.central),
        )

        def rw(w: Word) -> Word:
            return tuple(names[g] for g in w)

        rules = [
            (rw(r.lhs_word), NCPoly(alpha, {rw(w): c for w, c in r.rhs.terms.items()}))
            for r in self.rules
        ]
        return RewriteSystem(alpha, rules, name=name or self.name)

    def is_commutative(self) -> bool:
        """Every two generators commute in the presented algebra."""
        a, gens = self.alphabet, self.alphabet.gens
        return all(
            self.normal_form(NCPoly.word(a, (g, h)) - NCPoly.word(a, (h, g))).is_zero()
            for i, g in enumerate(gens)
            for h in gens[i + 1 :]
        )

    @cached_property
    def relations(self) -> list[tuple[Word, NCPoly]]:
        """The defining relations w = p of the presented algebra, as (w, p):

        - each rule lhs -> rhs;
        - for each central letter c and each other generator x, the word c*x
          as written (not canonicalised) against x*c, once per pair;
        - the suffix system's relations, read in this alphabet.

        An algebra map (or anti-algebra map) out of the free algebra that
        multiplies generator images along a word as written passes to the
        quotient exactly when it agrees on the two sides of every pair.
        """
        a = self.alphabet
        rels = [(r.lhs_word, r.rhs) for r in self.rules]
        central = [g for g in a.gens if g in a.central]
        for i, c in enumerate(central):
            rels += [((c, x), NCPoly.word(a, (x, c))) for x in a.gens if x != c and x not in central[:i]]
        if self.suffix_system is not None:
            rels += [(w, NCPoly(a, p.terms)) for w, p in self.suffix_system.relations]
        return rels

    # -- matching ------------------------------------------------------------
    def _redexes(self, word: Word):
        """The redexes of a canonical word as (rule, pos, nc, c), leftmost
        first: central-only rules (position 0), then by start in the
        noncentral part, rules in order at each start."""
        nc, c = self.alphabet.split_central(word)
        if c:
            for r in self._central_only:
                if _holds_central(c, r):
                    yield r, 0, nc, c
        n = len(nc)
        for i in range(n):
            for r in self._by_first.get(nc[i], ()):
                k = len(r.lhs_nc)  # a start too near the end fits no left side; skip its slice
                if i + k <= n and nc[i : i + k] == r.lhs_nc and (not r.lhs_central or _holds_central(c, r)):
                    yield r, i, nc, c

    def _match(self, word: Word):
        """Leftmost redex in a canonical word; returns (rule, pos, nc, c) or None."""
        return next(self._redexes(word), None)

    def _apply(self, rule: Rule, pos: int, nc: Word, c: Word):
        """One rewriting step; yields (word, coeff) pairs (words canonical)."""
        a = self.alphabet
        left = nc[:pos]
        right = nc[pos + len(rule.lhs_nc):]
        rem = list(c)
        for g in rule.lhs_central:
            rem.remove(g)
        rem_t = tuple(rem)
        for w, coeff in rule.rhs.terms.items():
            yield a.canon(left + w + right + rem_t), coeff

    # -- normal form ----------------------------------------------------------
    def _split_zone(self, word: Word) -> tuple[Word, Word]:
        k = len(word)
        while k and word[k - 1] in self.suffix_gens:
            k -= 1
        if any(g in self.suffix_gens for g in word[:k]):
            raise RuntimeError(
                f"zone letters not separated in {word_str(word)}; separation rules incomplete"
            )
        return word[:k], word[k:]

    def _nf_word(self, word: Word) -> NCPoly:
        """Normal form of a canonical word by leftmost reduction.

        Reduction is linear, so nf(w) = sum of coeff * nf(w') over the terms
        of w's leftmost one-step reduct. The reduction tree is evaluated in
        post-order with an explicit stack, and each word's normal form is
        memoised for the rest of the call: no word is matched or rewritten
        twice in one call. Only the requested word enters the persistent
        cache. ``SizeLimitError`` is raised when the pending words on the
        stack plus the terms of the last assembled normal form exceed
        ``TERM_CAP``; nothing is cached then.
        """
        cache = self._nf_cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        memo: dict[Word, dict[Word, Scalar]] = {}
        acc: dict[Word, Scalar] = {}
        # (word, None) is still to be matched; (word, reduct) waits for the
        # normal forms of its reduct's words, which sit above it
        stack: list[tuple[Word, list | None]] = [(word, None)]
        while stack:
            w, reduct = stack.pop()
            if reduct is None:
                if w in memo:
                    continue
                hit = cache.get(w)
                if hit is not None:
                    memo[w] = hit.terms
                    continue
                m = self._match(w)
                if m is None:
                    memo[w] = {w: S_ONE}
                    continue
                reduct = list(self._apply(*m))
                stack.append((w, reduct))
                stack += [(ww, None) for ww, _ in reduct if ww not in memo]
            else:
                acc = {}
                # last term first: the order in which a path-by-path search meets the leaves
                for ww, cc in reversed(reduct):
                    add_terms(acc, memo[ww].items(), cc)
                memo[w] = acc
            if len(stack) + len(acc) > TERM_CAP:
                raise SizeLimitError(f"term count exceeded cap {TERM_CAP} while reducing {word_str(word)}")
        acc = memo[word]
        if self.suffix_system is not None:
            acc = self._zone_canon(acc)
        out = NCPoly._of(self.alphabet, acc)
        if len(cache) > 400_000:
            cache.clear()
        cache[word] = out
        return out

    def _zone_canon(self, acc: dict[Word, Scalar]) -> dict[Word, Scalar]:
        """Reduce the suffix zone of each word (irreducible under the main
        rules) with the suffix system.  A word whose zone this rewrote can
        match a main rule again: in a quotient with the rule G -> 0, the zone
        A*As becomes 1 + (-q^2)*G*Gs.  Such a word is reduced again, zone and
        all, so that no rule matches any word of the result."""
        out: dict[Word, Scalar] = {}
        for w, coeff in acc.items():
            pre, suf = self._split_zone(w)
            if not suf:
                add_terms(out, ((w, coeff),))
                continue
            nf = self.suffix_system._nf_word(self.suffix_system.alphabet.canon(suf))
            for sw, sc in nf.terms.items():
                ww = pre + sw
                if sw == suf or self._match(ww) is None:
                    add_terms(out, ((ww, sc),), coeff)
                else:
                    add_terms(out, self._nf_word(ww).terms.items(), sc * coeff)
        return out

    def normal_form(self, p: NCPoly) -> NCPoly:
        canon = self.alphabet.canon
        acc: dict[Word, Scalar] = {}
        for w, c in p.terms.items():
            add_terms(acc, self._nf_word(canon(w)).terms.items(), c)
        return NCPoly._of(self.alphabet, acc)

    def mul(self, p: NCPoly, r: NCPoly) -> NCPoly:
        return self.normal_form(p.concat(r))

    def gen(self, g: str) -> NCPoly:
        return NCPoly.gen(self.alphabet, g)

    def one(self) -> NCPoly:
        return NCPoly.one(self.alphabet)

    def zero(self) -> NCPoly:
        return NCPoly.zero(self.alphabet)

    # -- star ------------------------------------------------------------------
    def star(self, p: NCPoly) -> NCPoly:
        if self.star_table is None:
            raise NoStarError(f"{self.name or 'system'} has no star table")
        out = NCPoly.zero(self.alphabet)
        for w, c in p.terms.items():
            img = NCPoly.const(self.alphabet, c.conj())
            for g in reversed(w):
                img = self.mul(img, self.star_table[g])
            out = out + img
        return self.normal_form(out)

    # -- enumeration -------------------------------------------------------------
    def all_words(self, max_deg: int) -> list[Word]:
        """All canonical words of degree <= max_deg (not only irreducible ones)."""
        seen = {EMPTY}
        layer = [EMPTY]
        out = [EMPTY]
        for _ in range(max_deg):
            nxt = []
            for w in layer:
                for g in self.alphabet.gens:
                    ww = self.alphabet.canon(w + (g,))
                    if ww not in seen:
                        seen.add(ww)
                        nxt.append(ww)
            out.extend(nxt)
            layer = nxt
        return out

    def basis_words(self, max_deg: int) -> list[Word]:
        """Irreducible (normal-form) words up to max_deg, in monomial order:
        the words that are their own normal form, as every rule lowers the
        words it rewrites."""
        out = [w for w in self.all_words(max_deg) if self._nf_word(w).terms == {w: S_ONE}]
        out.sort(key=self.alphabet.key)
        return out

    # -- confluence ---------------------------------------------------------------
    def _ambiguities(self, degree_bound: int):
        """The ambiguities as {canonical word: [pair of redexes (rule, pos)
        spanning it]}, and whether these are all the ambiguities of any degree.

        Two redexes that do not overlap resolve through a common reduct, so by
        Bergman's diamond lemma the smallest word with two one-step reducts of
        different normal form is spanned by two redexes that disagree, and is
        one of:

        (a) the noncentral parts N1, N2 of two left sides overlapping, or one
            inside the other, with the multiset max of their central parts:
            finitely many, each of at most 2L - 1 letters for left sides of at
            most L, all listed whatever their degree;
        (b) N1*x*N2 with that central max, for two rules whose central parts
            share a letter: ``Alphabet.canon`` lets a rule take a central letter
            from anywhere in the word, so redexes with disjoint noncentral parts
            still compete for it. x runs over every noncentral word, which makes
            the family infinite when N1 and N2 are both nonempty; the bound cuts only it.
        """
        a = self.alphabet
        letters = [g for g in a.gens if g not in a.central]
        found: dict[Word, list] = {}
        complete = True
        size = 0
        # the noncentral parts as strings, one character a letter: slices compare in C
        text = ["".join(chr(a.rank[g]) for g in r.lhs_nc) for r in self.rules]
        for r1, t1 in zip(self.rules, text):
            n1, c1 = r1.lhs_nc, Counter(r1.lhs_central)
            for r2, t2 in zip(self.rules, text):
                n2, c2 = r2.lhs_nc, Counter(r2.lhs_central)
                cmax = tuple((c1 | c2).elements())
                starts = []  # of r2 in a word of the finite families that r1 starts
                if n1 and n2:
                    L = len(n2)
                    starts += [i for i in range(len(n1) - L + 1) if t1.startswith(t2, i)]
                    starts += [len(n1) - k for k in range(1, min(len(n1), L)) if t1.endswith(t2[:k])]
                if c1 & c2 and not (n1 and n2):
                    starts.append(0)
                size += sum(len(n1) + max(0, len(n2) - len(n1) + pos) + len(cmax) for pos in starts)
                if size > AMBIGUITY_CAP:
                    raise SizeLimitError(f"overlap words exceed {AMBIGUITY_CAP} letters")
                spans = [(n1 + n2[len(n1) - pos :], pos) for pos in starts]
                if c1 & c2 and n1 and n2:
                    complete = False
                    room = degree_bound - len(n1) - len(n2) - len(cmax)
                    spans += [(n1 + x + n2, len(n1) + k) for k in range(room + 1) for x in product(letters, repeat=k)]
                for nc, pos in spans:
                    found.setdefault(a.canon(nc + cmax), []).append(((r1, 0), (r2, pos)))
        return dict(sorted(found.items(), key=lambda kv: a.key(kv[0]))), complete

    def check_local_confluence(self, degree_bound: int) -> ConfluenceReport:
        """The two redexes spanning each ambiguity word must reduce to one
        normal form. Up to the bound the smallest conflicting word is that of
        testing every one-step reduct of every word; a confluent ``complete``
        report holds at every degree. Never throws on conflicts;
        ``SizeLimitError`` past ``AMBIGUITY_CAP``."""
        found, complete = self._ambiguities(degree_bound)
        report = ConfluenceReport(degree_bound, len(found), complete=complete)
        for w, pairs in found.items():
            nc, c = self.alphabet.split_central(w)
            for redexes in pairs:
                nf1, nf2 = (self.normal_form(NCPoly(self.alphabet, dict(self._apply(r, p, nc, c))))
                            for r, p in redexes)
                if nf1 != nf2:
                    report.conflicts.append(Conflict(w, nf1, nf2))
                    break
        return report

    # -- structural identity ------------------------------------------------------
    @cached_property
    def _signature(self):
        star = frozenset(self.star_table.items()) if self.star_table else None
        return self.alphabet, tuple(self.rules), star, self.suffix_system._signature if self.suffix_system else None

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, RewriteSystem) and self._signature == other._signature

    def __hash__(self):
        return hash(self._signature)

    def __repr__(self):
        return f"RewriteSystem({self.name or self.alphabet.gens}, {len(self.rules)} rules)"
