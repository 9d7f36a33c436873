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


class OrderViolation(ValueError):
    """A rule's right-hand side is not strictly smaller in the monomial order."""


class SizeLimitError(RuntimeError):
    """Intermediate term count exceeded the configured cap."""


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


def _orient(p: NCPoly) -> tuple[Word, NCPoly]:
    """The rule lead -> rest that sets the nonzero p to zero: its leading word
    rewrites to minus the other terms over the leading coefficient."""
    lead = p.leading_word()
    rest = NCPoly(p.alphabet, {w: c for w, c in p.terms.items() if w != lead})
    return lead, rest.scale(-(p.terms[lead].inv()))


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
    # the checked words are every ambiguity of any degree, so a confluent
    # report certifies confluence beyond the bound
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
        for lhs, rhs in rules:
            rule = self._make_rule(tuple(lhs), rhs)
            if rule not in self.rules:  # x*Di = 1 and Di*x = 1 canonicalise alike
                self.rules.append(rule)
        self._nf_cache: dict[Word, NCPoly] = {}
        # index plain rules by first noncentral letter for fast matching
        self._by_first: dict[str, list[Rule]] = {}
        self._central_only: list[Rule] = []
        for r in self.rules:
            if r.lhs_nc:
                self._by_first.setdefault(r.lhs_nc[0], []).append(r)
            else:
                self._central_only.append(r)

    # -- construction ------------------------------------------------------
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

    @staticmethod
    def from_relations(
        alphabet: Alphabet,
        relations: Sequence[tuple[NCPoly, NCPoly]],
        **kw,
    ) -> "RewriteSystem":
        """Orient each relation lhs = rhs by its leading word automatically."""
        diffs = (left - right for left, right in relations)
        return RewriteSystem(alphabet, [_orient(d) for d in diffs if not d.is_zero()], **kw)

    def extend(self, extra_rules: Sequence[tuple[Word, NCPoly]], name: str = "") -> "RewriteSystem":
        base = [(r.lhs_word, r.rhs) for r in self.rules]
        return RewriteSystem(
            self.alphabet,
            base + list(extra_rules),
            star=self.star_table,
            name=name or f"{self.name}+quot",
            suffix_system=self.suffix_system,
        )

    def extend_by_ideal(self, gens: Sequence[NCPoly], name: str = "") -> "RewriteSystem":
        """Quotient rewrite system: orient each (normalized) ideal generator by its leading word."""
        nfs = (self.normal_form(g) for g in gens)
        return self.extend([_orient(g) for g in nfs if not g.is_zero()], name=name)

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
        for i in range(len(nc)):
            for r in self._by_first.get(nc[i], ()):
                if nc[i : i + len(r.lhs_nc)] == r.lhs_nc and (not r.lhs_central or _holds_central(c, r)):
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

    def is_irreducible(self, word: Word) -> bool:
        word = self.alphabet.canon(word)
        if self._match(word) is not None:
            return False
        if self.suffix_system is not None:
            pre, suf = self._split_zone(word)
            if suf:
                nf = self.suffix_system._nf_word(self.suffix_system.alphabet.canon(suf))
                if list(nf.terms.items()) != [(suf, S_ONE)]:
                    return False
        return True

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
        """Irreducible (normal-form) words up to max_deg, in monomial order."""
        out = [w for w in self.all_words(max_deg) if self.is_irreducible(w)]
        out.sort(key=self.alphabet.key)
        return out

    # -- confluence ---------------------------------------------------------------
    def one_step_reducts(self, word: Word) -> list[NCPoly]:
        """Every single rewriting step applicable to the word (all rules, all positions)."""
        a = self.alphabet
        return [NCPoly(a, dict(self._apply(*m))) for m in self._redexes(a.canon(word))]

    def _ambiguity_words(self, degree_bound: int) -> tuple[list[Word], bool]:
        """Canonical words of degree <= degree_bound on which two redexes overlap,
        in monomial order, and whether these are all such words of any degree.

        Two redexes that do not overlap resolve through a common reduct, so by
        Bergman's diamond lemma the smallest word with two one-step reducts of
        different normal form is one of:

        (a) the noncentral parts N1, N2 of two left sides overlapping, or one
            inside the other, with the multiset max of their central parts;
        (b) N1*x*N2 with that central max, for two rules whose central parts
            share a letter: ``Alphabet.canon`` lets a rule take a central letter
            from anywhere in the word, so redexes with disjoint noncentral parts
            still compete for it. x runs over every noncentral word, which makes
            the family infinite when N1 and N2 are both nonempty.
        """
        a = self.alphabet
        letters = [g for g in a.gens if g not in a.central]
        words: set[Word] = set()
        complete = True
        for r1 in self.rules:
            n1, c1 = r1.lhs_nc, Counter(r1.lhs_central)
            for r2 in self.rules:
                n2, c2 = r2.lhs_nc, Counter(r2.lhs_central)
                cmax = tuple((c1 | c2).elements())
                ncs = []
                if n1 and n2:
                    L = len(n2)
                    if any(n1[i : i + L] == n2 for i in range(len(n1) - L + 1)):
                        ncs.append(n1)
                    ncs += [n1 + n2[k:] for k in range(1, min(len(n1), L)) if n1[-k:] == n2[:k]]
                if c1 & c2:
                    if n1 and n2:
                        complete = False
                        room = degree_bound - len(n1) - len(n2) - len(cmax)
                        ncs += [
                            n1 + x + n2 for k in range(room + 1) for x in product(letters, repeat=k)
                        ]
                    else:
                        ncs.append(n1 + n2)
                for nc in ncs:
                    if len(nc) + len(cmax) <= degree_bound:
                        words.add(a.canon(nc + cmax))
                    else:
                        complete = False
        return sorted(words, key=a.key), complete

    def check_local_confluence(self, degree_bound: int) -> ConfluenceReport:
        """Every one-step reduct of every ambiguity word up to the bound must have
        one normal form. The verdict equals that of testing every word up to the
        bound; a confluent report that is ``complete`` holds at every degree.
        Never throws on conflicts."""
        words, complete = self._ambiguity_words(degree_bound)
        report = ConfluenceReport(degree_bound, len(words), complete=complete)
        for w in words:
            nfs = [self.normal_form(r) for r in self.one_step_reducts(w)]
            first = nfs[0]
            for other in nfs[1:]:
                if other != first:
                    report.conflicts.append(Conflict(w, first, other))
                    break
        return report

    # -- structural identity ------------------------------------------------------
    def _signature(self):
        sig = getattr(self, "_sig", None)
        if sig is None:
            star = (
                frozenset((g, p) for g, p in self.star_table.items())
                if self.star_table
                else None
            )
            sig = (
                self.alphabet,
                tuple(self.rules),
                star,
                self.suffix_system._signature() if self.suffix_system else None,
            )
            self._sig = sig
        return sig

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, RewriteSystem) and self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        return f"RewriteSystem({self.name or self.alphabet.gens}, {len(self.rules)} rules)"
