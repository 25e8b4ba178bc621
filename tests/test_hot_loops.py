"""Guards on the per-element loops of links, atlas, jsj and generators.

The order pin: `potential` returns its values in the order its walk
reaches the vertices, and trees, covers and quotients keep their vertices
in the order they were built.  The CLI sorts keys, so no stdout digest
sees these orders, but library callers iterating the dicts do.  The digest
below was recorded from the implementation before its loops were rewritten.

The bytecode guard: on Python 3.11 reading an enum member through its class
(`RegionLabel.OTHER`) costs more than ten times a module-level alias, so
no per-element function loads an enum class as a global.  On 3.11 `value`
is a Python-level property, so the wire encoders read `_value_` instead.
"""

import dis
import hashlib
import json
import random
import types

import pytest

from projlink import atlas, generators, jsj, links
from projlink.generators import random_cover_spec, random_jsj_tree
from projlink.jsj import potential, quotient

ORDER_DIGEST = "f77c296407dbc8e0a5d91af850aace1ec7da99071ef283520df0314033a89612"


def _update(digest, value) -> None:
    digest.update(json.dumps(value).encode() + b"\n")


def order_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(30):
        rng = random.Random(seed)
        for size in (1, 2, 3, 8, 40, 257):
            tree = random_jsj_tree(rng, size)
            _update(digest, [list(tree.vertices), list(potential(tree).items())])
        for size, bias in ((1, 0.5), (4, 0.0), (9, 0.5), (30, 1.0), (120, 0.5)):
            spec = random_cover_spec(rng, size, move_bias=bias)
            down = quotient(spec)
            _update(digest, [list(spec.cover.vertices), list(spec.vertex_map),
                             list(down.vertices), list(potential(down).items())])
    return digest.hexdigest()


def test_vertex_and_potential_order_is_unchanged():
    assert order_digest() == ORDER_DIGEST


ENUM_CLASSES = frozenset({"AmbientSpace", "Relation", "Direction", "RegionLabel", "Geometry",
                          "ClassificationKind"})
HOT_FUNCTIONS = [
    (links, "_swap"), (links, "_reduce"), (links, "_move"), (links, "canonical"),
    (atlas, "_closure_roots"), (atlas, "_cross_check"), (atlas, "verify_lift_injectivity"),
    (atlas, "relation_lift_compatibility"),
    (jsj, "validate_tree"), (jsj, "potential"), (jsj, "outermost"),
    (jsj, "_involution_violations"), (jsj, "quotient"), (jsj, "lemma44_check"),
    (generators, "_pruefer_edges"), (generators, "random_jsj_tree"),
    (generators, "random_cover_spec"),
    (links, "make_link"), (links, "classify"),
    (links, "link_to_dict"), (links, "chain_to_list"), (jsj, "tree_to_dict"),
    (links, "isotopic"), (links, "apply_relation"), (links, "lift"), (links, "_normal_form"),
]
ENCODERS = [(links, "link_to_dict"), (links, "chain_to_list"), (jsj, "tree_to_dict")]


def _loads(code: types.CodeType, opnames: tuple[str, ...]) -> set[str]:
    """Names loaded by `opnames` in `code` and every code object nested in it."""
    names = {ins.argval for ins in dis.get_instructions(code) if ins.opname in opnames}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _loads(const, opnames)
    return names


def _global_loads(code: types.CodeType) -> set[str]:
    """Names loaded as globals by `code` and every code object nested in it."""
    return _loads(code, ("LOAD_GLOBAL", "LOAD_NAME"))


@pytest.mark.parametrize("module, name", HOT_FUNCTIONS,
                         ids=[f"{m.__name__.rsplit('.', 1)[1]}.{n}" for m, n in HOT_FUNCTIONS])
def test_hot_loops_read_no_enum_class(module, name):
    function = vars(module)[name]
    function = getattr(function, "__wrapped__", function)  # under lru_cache
    assert not _global_loads(function.__code__) & ENUM_CLASSES


# The cover check and the quotient allocate nothing per edge or vertex that
# their result does not keep: no set of an edge's ends, no `min` of an orbit.
THROWAWAY_GLOBALS = [(jsj, "_involution_violations", {"frozenset"}),
                     (jsj, "quotient", {"frozenset", "min"})]


@pytest.mark.parametrize("module, name, banned", THROWAWAY_GLOBALS,
                         ids=[f"jsj.{n}" for _, n, _ in THROWAWAY_GLOBALS])
def test_cover_loops_load_no_throwaway_builder(module, name, banned):
    assert not _global_loads(vars(module)[name].__code__) & banned


@pytest.mark.parametrize("module, name", ENCODERS,
                         ids=[f"{m.__name__.rsplit('.', 1)[1]}.{n}" for m, n in ENCODERS])
def test_encoders_read_no_value_property(module, name):
    assert "value" not in _loads(vars(module)[name].__code__, ("LOAD_ATTR",))
