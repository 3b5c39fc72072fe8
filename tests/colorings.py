"""The coloring checker the tests share: every certificate an engine returns
is checked against its instance here, apart from the engines themselves."""

from choosekit.model import Coloring, ListInstance


def validate_coloring(instance: ListInstance, coloring: Coloring) -> list:
    """Check a coloring: every vertex colored from its own list, no edge monochromatic."""
    out = []
    c = coloring.as_dict()
    for side, lists in (("A", instance.a_lists), ("B", instance.b_lists)):
        for i, l in enumerate(lists):
            key = (side, i)
            if key not in c:
                out.append(f"vertex {key} not colored")
            elif c[key] not in l:
                out.append(f"vertex {key} colored outside its list")
    for a, b in instance.edges():
        if ("A", a) in c and ("B", b) in c and c[("A", a)] == c[("B", b)]:
            out.append(f"edge ({a},{b}) monochromatic with color {c[('A', a)]}")
    return out
