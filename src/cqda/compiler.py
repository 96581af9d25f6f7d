"""Exhaustive DPLL compilation of signed queries into ordered circuits.

``dpll_compile`` walks the variables of its elimination order from the
largest down, so the circuit it emits is ordered for the *reversed*
order: that reversal is the significance order direct access serves.
Each atom's trie lists its columns in that same binding order, so at a
call on ``x`` every atom has bound exactly the trie levels above ``x``.
The call branches only on the values that every positive atom on ``x``
supports (the common child keys of their trie nodes, as in leapfrog
triejoin), or on the whole domain when no positive atom mentions ``x``.
A negated atom on ``x`` excludes a value once it binds a stored row, and
drops out once no stored row extends the binding.  Unsupported values
get no edge, and neither do branches whose subcircuit is empty, so the
circuit holds no Bot gate unless the query is unsatisfiable.

Each branch value, and the root, splits the remaining atoms into
components connected through unassigned variables and takes their
product; the first empty component ends the product, so no sibling
after it is compiled.  Calls are generators: a product yields each
component's call, and one loop runs the calls on an explicit stack, so
deep orders never meet Python's recursion limit.

That loop caches each call by the identity of its plan entry (its atoms
and the variable its gate tests, which fix the bound variables as the
atoms' variables above it) plus, per atom, the identity of its residual
subtrie: the trie node its bound levels reach.  ``Relation.trie`` makes
equal subtries one object, so equal identities mean equal residual
relations.  The key is sound because a call's circuit depends only on
those residual relations and on the variables the plan entry names, and
the plan entry fixes the atoms, so each key position only ever compares
nodes of one atom's trie.  Equal bound values reach the same node, so
the key is never finer than keying by the bound values; it is the
component caching of #SAT compilers applied to shared subtries.

A query with a head is projected while it compiles, as projected model
counters do (#∃SAT; Lagniez and Marquis's recursive projected
counter).  Its free variables must be the last ones the elimination
order lists, so every call on a free variable sits above every call on
an existential one.  A call on an existential variable tries its
supported values in rank order and stops at the first whose product is
nonempty: it answers only whether a model exists and builds no gate.
Products drop such answers, so the circuit mentions the free variables
alone, and ``project_circuit`` applied to the join's circuit is the
oracle it is tested against.

``binarize`` rewrites a database and query onto the two-value domain,
spending ceil(log2 |D|) bit variables per original variable.  The bit
order puts each variable's most significant bit first, which makes the
rewriting an order isomorphism on answers.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

from .circuit import Circuit
from .errors import BudgetExceededError, NotFreeConnexError, RankOutOfDomainError
from .hypergraph import Budget
from .query import Atom, SignedQuery, check_compatible
from .relations import Assignment, Database, Domain, Relation, VarOrder


@dataclass
class CompileStats:
    """Calls run, calls answered from the cache, gates built and their edges."""

    rec_calls: int = 0
    cache_hits: int = 0
    gates: int = 0
    edges: int = 0


_EMPTY = -1  # result of a call whose relation is empty; it never becomes a gate
_TOP = -2  # result of an existential call with a model; products drop it, an edge or the output makes it Top


def _call_key(call: tuple, nodes: list[dict]) -> tuple:
    """Cache key of a call: its plan entry and each atom's residual trie node, by identity."""
    return (id(call), *[id(nodes[aid]) for aid in call[0]])


def _supported(guards: list[dict], domain: Domain, rank) -> Sequence[str]:
    """Values every guard node has a child for, ascending; all of them without guards."""
    if not guards:
        return domain.values
    common = guards[0].keys()
    for g in guards[1:]:
        common = common & g.keys()
    return sorted(common, key=rank)


def dpll_compile(
    query: SignedQuery, db: Database, order: VarOrder, budget: Budget | None = None
) -> tuple[Circuit, CompileStats]:
    """Compile the answers of a query into an ordered circuit.

    ``order`` is the elimination order; it must cover the query
    variables (extra variables are allowed and stay unconstrained).  The
    result computes the answer set over the universe stored on the
    circuit: ``order`` reversed for a join query, and its prefix of free
    variables for a query with a head, which must be a suffix of
    ``order`` or ``NotFreeConnexError`` is raised.  Every gate reachable
    from the output computes a nonempty relation; an unsatisfiable query
    yields the Bot gate as output.  ``stats.edges`` counts the edges of
    every gate built, so it is at least the reachable circuit's size.
    More than ``budget.max_states`` calls raise ``BudgetExceededError``;
    without a budget the calls are not capped.
    """
    check_compatible(query, db)
    if not query.variables <= set(order.vars):
        raise ValueError("elimination order must cover every query variable")
    universe = order.reversed()
    if query.free is not None:
        universe = VarOrder(universe.vars[: len(query.free)])
        if set(universe.vars) != query.free:
            raise NotFreeConnexError(
                "free variables must form a prefix of the significance order (a suffix of the elimination order)"
            )
    cut = len(order) - len(universe)  # a call on a variable below this position is existential
    max_calls = None if budget is None else budget.max_states
    domain = db.domain
    rank = {d: i for i, d in enumerate(domain.values)}.__getitem__
    circuit = Circuit(domain, universe)
    stats = CompileStats()

    atoms = query.atoms
    arg_sets: list[tuple[str, ...]] = [a.args for a in atoms]
    var_sets = [frozenset(a.args) for a in atoms]
    position = {v: order.position(v) for v in query.variables}
    tries: list[dict] = []
    levels: list[tuple[str, ...]] = []
    for a in atoms:
        rel: Relation = db.relations[a.symbol]
        perm = tuple(sorted(range(len(a.args)), key=lambda i: -position[a.args[i]]))
        tries.append(rel.trie(perm))
        levels.append(tuple(a.args[i] for i in perm))
    # per atom, the trie node its bound levels reach; branch advances and restores it
    nodes = list(tries)

    def split_components(aids, px: int):
        # variables at position >= px are bound; atoms link through the others
        open_of = {aid: [v for v in arg_sets[aid] if position[v] < px] for aid in aids}
        by_var: dict[str, list[int]] = {}
        for aid in aids:
            for v in open_of[aid]:
                by_var.setdefault(v, []).append(aid)
        comps = []
        seen: set[int] = set()
        for start in aids:
            if start in seen or not open_of[start]:
                continue
            seen.add(start)
            stack = [start]
            block = []
            while stack:
                aid = stack.pop()
                block.append(aid)
                for v in open_of[aid]:
                    for other in by_var[v]:
                        if other not in seen:
                            seen.add(other)
                            stack.append(other)
            comps.append(tuple(sorted(block)))
        return comps

    plans: dict[tuple, list] = {}
    entries: dict[tuple, tuple] = {}  # each plan entry once, so calls can be keyed by its identity

    def plan(aids: tuple, px: int) -> list:
        """Calls left once the variables at position >= px are bound.

        One ``(atoms, variable x to branch on, (atom, positive, x is its
        last level) per atom on x)`` per component.  Variables are bound in
        decreasing position, so the split depends on px alone, x is the
        component's open variable of largest position, and its bound
        variables are exactly those above x.
        """
        key = (aids, px)
        got = plans.get(key)
        if got is None:
            got = []
            for comp in split_components(aids, px):
                x = max((v for aid in comp for v in arg_sets[aid] if position[v] < px), key=position.__getitem__)
                on_x = tuple(
                    (aid, atoms[aid].positive, levels[aid][-1] == x) for aid in comp if x in var_sets[aid]
                )
                entry = (comp, x, on_x)
                got.append(entries.setdefault(entry, entry))
            plans[key] = got
        return got

    def product(calls: list):
        """Product of the components whose plan entries are ``calls``.

        Yields each component's call, its plan entry, and receives its
        gate; the first empty component ends the product, and ``_TOP``
        gates are left out of it.
        """
        kids = []
        for call in calls:
            gate = yield call
            if gate == _EMPTY:
                return _EMPTY
            if gate != _TOP:
                kids.append(gate)
        if not kids:
            return _TOP
        if len(kids) == 1:
            return kids[0]
        stats.edges += len(kids)
        return circuit.add_product(kids)

    def branch(call: tuple):
        """Decision gate of one call, or ``_EMPTY``; ``_TOP`` for an existential call with a model."""
        aids, x, on_x = call
        existential = position[x] < cut
        at_x = []  # (atom id, trie node) per atom on x; x is the next level of each
        guards = []
        negs = []  # (atom id, trie node, x is its last level) per negated atom on x
        for aid, positive, last in on_x:
            node = nodes[aid]
            at_x.append((aid, node))
            if positive:
                guards.append(node)
            else:
                negs.append((aid, node, last))
        edges = []
        found = False  # an existential call stops at its first value with a model
        # positive atoms support every value by construction; only negated atoms on x remain
        for d in _supported(guards, domain, rank):
            dropped = set()
            for aid, node, last in negs:
                if d not in node:
                    dropped.add(aid)  # no stored row extends the binding: satisfied
                elif last:
                    break  # the fully bound row is stored: d is excluded
            else:
                kept = tuple(aid for aid in aids if aid not in dropped) if dropped else aids
                for aid, node in at_x:
                    if aid not in dropped:
                        nodes[aid] = node[d]
                calls = plan(kept, position[x])
                gate = (yield from product(calls)) if calls else _TOP
                if gate != _EMPTY:
                    if existential:
                        found = True
                        break
                    edges.append((d, circuit.top() if gate == _TOP else gate))
        for aid, node in at_x:
            nodes[aid] = node
        if found:
            return _TOP
        if not edges:
            return _EMPTY
        stats.edges += len(edges)
        return circuit.add_decision(x, edges)

    out = _EMPTY
    if all(tries[aid] for aid in range(len(atoms)) if atoms[aid].positive):
        # a negated atom over an empty relation holds everywhere
        kept = tuple(aid for aid in range(len(atoms)) if atoms[aid].positive or tries[aid])
        # one loop drives the calls, so depth never meets Python's recursion limit
        stack = [(None, product(plan(kept, len(order))))]
        cache: dict[tuple, int] = {}
        out = None  # what the next send passes to the generator on top
        while stack:
            key, gen = stack[-1]
            try:
                call = gen.send(out)
            except StopIteration as done:
                stack.pop()
                out = done.value
                if key is not None:
                    cache[key] = out
                continue
            key = _call_key(call, nodes)
            out = cache.get(key)
            if out is None:
                stats.rec_calls += 1
                if max_calls is not None and stats.rec_calls > max_calls:
                    raise BudgetExceededError(f"compilation exceeded the budget of {max_calls} calls")
                stack.append((key, branch(call)))
            else:
                stats.cache_hits += 1
    circuit.set_output(circuit.bot() if out == _EMPTY else circuit.top() if out == _TOP else out)

    stats.gates = len(circuit.gates)
    return circuit, stats


# --- binarisation ------------------------------------------------------------

BIN_DOMAIN = Domain(("0", "1"))


@dataclass(frozen=True)
class BinCodec:
    """Bit-blasting codec between a domain and fixed-width bit variables.

    Each variable ``x`` becomes ``bits`` fresh variables ``x^1 .. x^b``
    where ``x^i`` carries bit ``i - 1`` of the value's 0-based rank, so
    ``x^1`` is the least significant bit.  ``codes`` (value to bits) and
    ``bit_names`` list bits least significant first, as binarized rows
    and atoms do; ``values``, the one decode table, reads them back most
    significant first, as a significance order lists them.  Too few bits
    for the domain raise ``ValueError``.
    """

    source_domain: Domain
    bits: int
    variables: tuple[str, ...]
    codes: dict[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)
    values: dict[tuple[str, ...], str] = field(init=False, compare=False, repr=False)
    bit_names: dict[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.bits < 1 or 1 << self.bits < len(self.source_domain):
            raise ValueError(f"a {self.bits}-bit width cannot encode a {len(self.source_domain)}-value domain")
        codes = {value: _bits(code, self.bits) for code, value in enumerate(self.source_domain.values)}
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "values", {bits[::-1]: value for value, bits in codes.items()})
        names = {var: tuple(f"{var}^{i}" for i in range(1, self.bits + 1)) for var in self.variables}
        object.__setattr__(self, "bit_names", names)

    def encode_assignment(self, tau: Mapping[str, str]) -> Assignment:
        """The bits of ``tau``, whose variables and values ``access.Provider`` has checked."""
        out: dict[str, str] = {}
        for var, value in tau.items():
            out.update(zip(self.bit_names[var], self.codes[value]))
        return Assignment(out)


def _bits(code: int, width: int) -> tuple[str, ...]:
    """``width`` bits of ``code``, least significant first."""
    return tuple(str((code >> i) & 1) for i in range(width))


def bits_needed(domain_size: int) -> int:
    """ceil(log2 n), floored at one bit so unary domains stay encodable."""
    return max(1, (domain_size - 1).bit_length())


def binarize(
    db: Database, q: SignedQuery, order: VarOrder
) -> tuple[Database, SignedQuery, VarOrder, BinCodec]:
    """Rewrite database, query and significance order onto domain {0, 1}.

    ``order`` is read as a significance order; each variable is replaced
    in place by its bit variables, most significant first, which keeps
    the lexicographic order of answers aligned with the original.
    Relation columns and atom arguments expand least-significant-first,
    mirroring how rows spell out their bits.

    When the domain size is not a power of two, some bit patterns decode
    to nothing; one negated validity atom per variable of ``order``
    forbids them.  Positive atoms already pin their variables' bits to
    stored rows, but variables seen only by negated atoms (or by no atom
    at all) would otherwise admit phantom answers.  Such an edge groups
    exactly one variable's bits, so signed widths are unaffected.
    The query is checked against the source database here, so an arity
    error names the source arities, not the bit arities.
    """
    check_compatible(q, db)
    if not q.variables <= set(order.vars):
        raise ValueError("order must cover every query variable")
    codec = BinCodec(db.domain, bits_needed(len(db.domain)), tuple(order.vars))
    b = codec.bits
    names = codec.bit_names

    relations: dict[str, Relation] = {}
    for name, rel in db.relations.items():
        cols = tuple(f"c{j}" for j in range(len(rel.vars) * b))
        rows = frozenset(tuple(chain.from_iterable(map(codec.codes.__getitem__, row))) for row in rel.rows)
        relations[name] = Relation(cols, rows)

    bin_atoms = [
        Atom(a.positive, a.symbol, tuple(bit for v in a.args for bit in names[v]))
        for a in q.atoms
    ]

    invalid = [_bits(code, b) for code in range(len(db.domain), 1 << b)]
    if invalid:
        taken = set(relations)
        bit_cols = tuple(f"c{j}" for j in range(b))
        for var in order.vars:
            symbol = f"_dom_{var}"
            while symbol in taken:
                symbol = "_" + symbol
            taken.add(symbol)
            relations[symbol] = Relation(bit_cols, frozenset(invalid))
            bin_atoms.append(Atom(False, symbol, names[var]))

    bin_db = Database(BIN_DOMAIN, relations)
    bin_free = None if q.free is None else frozenset(bit for v in q.free for bit in names[v])
    bin_q = SignedQuery(tuple(bin_atoms), bin_free)

    bin_order = VarOrder(tuple(bit for v in order.vars for bit in reversed(names[v])))
    return bin_db, bin_q, bin_order, codec


def debin_tuple(t: Mapping[str, str], codec: BinCodec) -> Assignment:
    """Collapse a tuple over bit variables back onto the source domain.

    Reads each variable's bits most significant first through ``codec.values``.
    """
    out: dict[str, str] = {}
    for var, names in codec.bit_names.items():
        try:
            bits = tuple([t[n] for n in reversed(names)])
        except KeyError:
            if any(n in t for n in names):
                raise ValueError(f"tuple covers only some bits of {var}") from None
            continue
        value = codec.values.get(bits)
        if value is None:
            raise RankOutOfDomainError(
                f"bit pattern {''.join(bits)} is no value of a {len(codec.source_domain)}-value domain"
            )
        out[var] = value
    return Assignment(out)


def compile_binarized(
    q: SignedQuery, db: Database, order: VarOrder, budget: Budget | None = None
) -> tuple[Circuit, BinCodec, CompileStats]:
    """Binarize, then compile; the circuit lives on the bit variables.

    ``order`` is the elimination order on the original variables.  The
    circuit's universe is the bit significance order, cut to the free
    variables' bits when the query has a head, so the k-th bit tuple
    decodes to the k-th original answer.
    """
    access = order.reversed()
    bin_db, bin_q, bin_access, codec = binarize(db, q, access)
    circuit, stats = dpll_compile(bin_q, bin_db, bin_access.reversed(), budget)
    return circuit, codec, stats
