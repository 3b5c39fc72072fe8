"""The coloring checker the tests share: every certificate an engine returns
is checked against its instance here, apart from the engines themselves."""

from choosekit.model import Coloring, ListInstance


def validate_coloring(instance: ListInstance, coloring: Coloring) -> list:
    """Check a coloring: every vertex colored from its own list, no edge monochromatic."""
    out = []
    c = coloring.as_dict()
    used = {"A": set(), "B": set()}  # the colors on each side's colored vertices
    for side, lists in (("A", instance.a_lists), ("B", instance.b_lists)):
        for i, l in enumerate(lists):
            key = (side, i)
            if key not in c:
                out.append(f"vertex {key} not colored")
                continue
            used[side].add(c[key])
            if c[key] not in l:
                out.append(f"vertex {key} colored outside its list")
    if instance.is_complete:
        # every A-vertex meets every B-vertex: an edge is monochromatic
        # exactly when a color is used on both sides
        for x in sorted(used["A"] & used["B"]):
            out.append(f"color {x} on both sides: its edges are monochromatic")
        return out
    for a, b in instance.adjacency:
        if ("A", a) in c and ("B", b) in c and c[("A", a)] == c[("B", b)]:
            out.append(f"edge ({a},{b}) monochromatic with color {c[('A', a)]}")
    return out
