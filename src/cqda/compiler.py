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

That loop caches each call by its plan entry (its atoms, which of their
variables are bound, and the variable its gate tests) plus, per atom,
the canonical id of its residual subtrie: the trie node its bound levels
reach.  Every trie is hash-consed bottom-up, once per compile and with
one intern table for all atoms, so equal subtries get equal ids.  The
key is sound because a call's circuit depends only on those residual
relations and on the variables the plan entry names.  Equal bound values
reach the same node, so the key is never finer than keying by the bound
values; it is the component caching of #SAT compilers applied to shared
subtries.

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
from .errors import RankOutOfDomainError
from .query import Atom, SignedQuery, check_compatible
from .relations import Assignment, Database, Domain, Relation, VarOrder


@dataclass
class CompileStats:
    """Calls run, calls answered from the cache, gates built and their edges."""

    rec_calls: int = 0
    cache_hits: int = 0
    gates: int = 0
    edges: int = 0

    def to_dict(self) -> dict:
        return {
            "rec_calls": self.rec_calls,
            "cache_hits": self.cache_hits,
            "gates": self.gates,
            "edges": self.edges,
        }


_EMPTY = -1  # result of a call whose relation is empty; it never becomes a gate


def _subtrie_id(node: dict, ids: dict[int, int], table: dict) -> int:
    """Canonical id of a trie node: equal subtries, in any trie, get equal ids.

    Hash-consing bottom-up: a node whose children are leaves is named by
    its value set, any other node by its ``(value, child id)`` pairs, and
    ``table`` interns the names.  ``ids`` memoises by node identity.
    Nodes are named in post-order, children in key order, from an
    explicit stack, so a trie of any depth fits Python's recursion limit.
    """
    got = ids.get(id(node))
    if got is not None:
        return got
    if not next(iter(node.values()), None):
        got = ids[id(node)] = table.setdefault(frozenset(node), len(table))
        return got
    # one frame per inner node on the path: (node, its unread items, pairs named so far, its key in the parent)
    stack = [(node, iter(node.items()), [], None)]
    while stack:
        top, items, pairs, key = stack[-1]
        for d, child in items:
            got = ids.get(id(child))
            if got is None:
                if next(iter(child.values()), None):
                    stack.append((child, iter(child.items()), [], d))
                    break
                got = ids[id(child)] = table.setdefault(frozenset(child), len(table))
            pairs.append((d, got))
        else:
            got = ids[id(top)] = table.setdefault(frozenset(pairs), len(table))
            stack.pop()
            if stack:
                stack[-1][2].append((key, got))
    return got


def _call_key(call: tuple, nodes: list[dict], ids: dict[int, int], table: dict) -> tuple:
    """Cache key of a call: its plan entry and the id of each atom's residual subtrie.

    Plan entries are interned, so the entry's identity stands for its value.
    """
    return (id(call), *[_subtrie_id(nodes[aid], ids, table) for aid in call[0]])


def _supported(guards: list[dict], domain: Domain, rank) -> Sequence[str]:
    """Values every guard node has a child for, ascending; all of them without guards."""
    if not guards:
        return domain.values
    common = guards[0].keys()
    for g in guards[1:]:
        common = common & g.keys()
    return sorted(common, key=rank)


def dpll_compile(
    query: SignedQuery, db: Database, order: VarOrder
) -> tuple[Circuit, CompileStats]:
    """Compile the answers of a join query into an ordered circuit.

    ``order`` is the elimination order; it must cover the query
    variables (extra variables are allowed and stay unconstrained).  The
    result computes the answer set over ``order`` reversed, which is the
    universe stored on the circuit.  Every gate reachable from the
    output computes a nonempty relation; an unsatisfiable query yields
    the Bot gate as output.  ``stats.edges`` counts the edges of every
    gate built, so it is at least the reachable circuit's size.
    """
    check_compatible(query, db)
    if not query.variables <= set(order.vars):
        raise ValueError("elimination order must cover every query variable")
    domain = db.domain
    rank = {d: i for i, d in enumerate(domain.values)}.__getitem__
    circuit = Circuit(domain, order.reversed())
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

        One ``(atoms, bound variables by name, variable x to branch on,
        (atom, positive, x is its last level) per atom on x)`` per
        component.  Variables are bound in decreasing position, so which
        ones are bound, and so the split, depends on px alone.
        """
        key = (aids, px)
        got = plans.get(key)
        if got is None:
            got = []
            for comp in split_components(aids, px):
                vs = sorted({v for aid in comp for v in arg_sets[aid]})
                bound = tuple(v for v in vs if position[v] >= px)
                x = max((v for v in vs if position[v] < px), key=position.__getitem__)
                on_x = tuple(
                    (aid, atoms[aid].positive, levels[aid][-1] == x) for aid in comp if x in var_sets[aid]
                )
                entry = (comp, bound, x, on_x)
                got.append(entries.setdefault(entry, entry))
            plans[key] = got
        return got

    def product(aids: tuple, px: int):
        """Product of the components left once the variables at position >= px are bound.

        Yields each component's call, its plan entry, and receives its
        gate; the first empty component ends the product.
        """
        kids = []
        for call in plan(aids, px):
            gate = yield call
            if gate == _EMPTY:
                return _EMPTY
            kids.append(gate)
        if not kids:
            return circuit.top()
        if len(kids) == 1:
            return kids[0]
        stats.edges += len(kids)
        return circuit.add_product(kids)

    def branch(call: tuple):
        """Decision gate of one call, or ``_EMPTY``."""
        aids, _, x, on_x = call
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
                gate = yield from product(kept, position[x])
                if gate != _EMPTY:
                    edges.append((d, gate))
        for aid, node in at_x:
            nodes[aid] = node
        if not edges:
            return _EMPTY
        stats.edges += len(edges)
        return circuit.add_decision(x, edges)

    out = _EMPTY
    if all(tries[aid] for aid in range(len(atoms)) if atoms[aid].positive):
        # a negated atom over an empty relation holds everywhere
        kept = tuple(aid for aid in range(len(atoms)) if atoms[aid].positive or tries[aid])
        # one loop drives the calls, so depth never meets Python's recursion limit
        stack = [(None, product(kept, len(order)))]
        cache: dict[tuple, int] = {}
        ids: dict[int, int] = {}
        table: dict[frozenset, int] = {}
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
            key = _call_key(call, nodes, ids, table)
            out = cache.get(key)
            if out is None:
                stats.rec_calls += 1
                stack.append((key, branch(call)))
            else:
                stats.cache_hits += 1
    circuit.set_output(circuit.bot() if out == _EMPTY else out)

    stats.gates = len(circuit.gates)
    return circuit, stats


# --- binarisation ------------------------------------------------------------

BIN_DOMAIN = Domain(("0", "1"))


@dataclass(frozen=True)
class BinCodec:
    """Bit-blasting codec between a domain and fixed-width bit variables.

    Each variable ``x`` becomes ``bits`` fresh variables ``x^1 .. x^b``
    where ``x^i`` carries bit ``i - 1`` of the value's 0-based rank, so
    ``x^1`` is the least significant bit.  The tables are built once per
    codec: ``codes`` maps each value to its bits, ``values`` maps bits
    back, and ``bit_names`` gives each variable's bit variables, least
    significant first.
    """

    source_domain: Domain
    bits: int
    variables: tuple[str, ...]
    codes: dict[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)
    values: dict[tuple[str, ...], str] = field(init=False, compare=False, repr=False)
    bit_names: dict[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        codes = {value: _bits(code, self.bits) for code, value in enumerate(self.source_domain.values)}
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "values", {bits: value for value, bits in codes.items()})
        names = {var: tuple(f"{var}^{i}" for i in range(1, self.bits + 1)) for var in self.variables}
        object.__setattr__(self, "bit_names", names)

    def encode_value(self, value: str) -> tuple[str, ...]:
        bits = self.codes.get(value)
        if bits is None:
            raise ValueError(f"value {value!r} outside the domain")
        return bits

    def decode_value(self, bits_lsb: tuple[str, ...]) -> str:
        value = self.values.get(tuple(bits_lsb))
        if value is None:
            raise RankOutOfDomainError(
                f"bit pattern {''.join(reversed(bits_lsb))} is no value of a {len(self.source_domain)}-value domain"
            )
        return value

    def encode_assignment(self, tau: Mapping[str, str]) -> Assignment:
        out: dict[str, str] = {}
        for var, value in tau.items():
            names = self.bit_names.get(var)
            if names is None:
                raise ValueError(f"variable {var!r} is not encoded by this codec")
            out.update(zip(names, self.encode_value(value)))
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
    """
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
    """Collapse a tuple over bit variables back onto the source domain."""
    out: dict[str, str] = {}
    for var, names in codec.bit_names.items():
        try:
            bits = tuple([t[n] for n in names])
        except KeyError:
            if any(n in t for n in names):
                raise ValueError(f"tuple covers only some bits of {var}") from None
            continue
        out[var] = codec.decode_value(bits)
    return Assignment(out)


def compile_binarized(
    q: SignedQuery, db: Database, order: VarOrder
) -> tuple[Circuit, BinCodec, CompileStats]:
    """Binarize, then compile; the circuit lives on the bit variables.

    ``order`` is the elimination order on the original variables.  The
    circuit's universe is the bit significance order, so the k-th bit
    tuple decodes to the k-th original answer.
    """
    access = order.reversed()
    bin_db, bin_q, bin_access, codec = binarize(db, q, access)
    circuit, stats = dpll_compile(bin_q, bin_db, bin_access.reversed())
    return circuit, codec, stats
