"""ECO netlist/geometry changes the routing session can absorb.

Engineering-change-order edits arrive long after the first full route;
the session (:mod:`repro.engine.session`) applies them in place and
re-routes only the nets they touch.  Four edit kinds cover the common
cases:

* :class:`AddNet` — a new net appears (buffer insertion, new logic);
* :class:`RemoveNet` — a net disappears (dead logic removal);
* :class:`MovePin` — a pin's shapes translate (cell resize / swap);
* :class:`ResizeBlockage` — a fixed blockage grows or shrinks
  (macro move, power-grid change).

Each change is plain data; all mutation happens inside
``RoutingSession.apply_changes`` so dirty-tracking stays in one place.
``changes_from_json`` parses the ``route --eco CHANGES.json`` document.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.chip.net import Net, Pin
from repro.geometry.rect import Rect


class Change:
    """Base class: one ECO edit (plain data, applied by the session)."""

    op = "change"

    def as_dict(self) -> Dict[str, object]:  # pragma: no cover - abstract
        raise NotImplementedError


class AddNet(Change):
    """Add a new net (its pins' shapes included)."""

    op = "add_net"
    __slots__ = ("net",)

    def __init__(self, net: Net) -> None:
        self.net = net

    def __repr__(self) -> str:
        return f"AddNet({self.net.name})"

    def as_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "net": self.net.name,
            "wire_type": self.net.wire_type,
            "weight": self.net.weight,
            "pins": [
                {
                    "name": pin.name,
                    "shapes": [
                        [layer, *rect.as_tuple()] for layer, rect in pin.shapes
                    ],
                }
                for pin in self.net.pins
            ],
        }


class RemoveNet(Change):
    """Remove a net: its wiring, pins and session record disappear."""

    op = "remove_net"
    __slots__ = ("net_name",)

    def __init__(self, net_name: str) -> None:
        self.net_name = net_name

    def __repr__(self) -> str:
        return f"RemoveNet({self.net_name})"

    def as_dict(self) -> Dict[str, object]:
        return {"op": self.op, "net": self.net_name}


class MovePin(Change):
    """Translate one pin's shapes by (dx, dy)."""

    op = "move_pin"
    __slots__ = ("net_name", "pin_name", "dx", "dy")

    def __init__(self, net_name: str, pin_name: str, dx: int, dy: int) -> None:
        self.net_name = net_name
        self.pin_name = pin_name
        self.dx = int(dx)
        self.dy = int(dy)

    def __repr__(self) -> str:
        return f"MovePin({self.net_name}:{self.pin_name}, {self.dx:+d}, {self.dy:+d})"

    def as_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "net": self.net_name,
            "pin": self.pin_name,
            "dx": self.dx,
            "dy": self.dy,
        }


class ResizeBlockage(Change):
    """Replace the rectangle of blockage ``index`` in ``chip.blockages``.

    Either an explicit ``rect`` or a symmetric ``expand`` margin (negative
    shrinks) describes the new extent.
    """

    op = "resize_blockage"
    __slots__ = ("index", "rect", "expand")

    def __init__(
        self,
        index: int,
        rect: Optional[Rect] = None,
        expand: Optional[int] = None,
    ) -> None:
        if (rect is None) == (expand is None):
            raise ValueError("ResizeBlockage wants exactly one of rect / expand")
        self.index = index
        self.rect = rect
        self.expand = expand

    def __repr__(self) -> str:
        how = self.rect if self.rect is not None else f"expand={self.expand}"
        return f"ResizeBlockage(#{self.index}, {how})"

    def new_rect(self, old: Rect) -> Rect:
        if self.rect is not None:
            return self.rect
        return old.expanded(int(self.expand))

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"op": self.op, "index": self.index}
        if self.rect is not None:
            out["rect"] = list(self.rect.as_tuple())
        else:
            out["expand"] = self.expand
        return out


# ----------------------------------------------------------------------
# JSON (de)serialization for ``route --eco CHANGES.json``
# ----------------------------------------------------------------------
def _pin_from_spec(spec: Dict[str, object], net_name: str, index: int) -> Pin:
    shapes: List[Tuple[int, Rect]] = []
    for shape in spec.get("shapes", ()):
        if len(shape) != 5:
            raise ValueError(
                f"pin shape wants [layer, x_lo, y_lo, x_hi, y_hi], got {shape!r}"
            )
        layer, x_lo, y_lo, x_hi, y_hi = (int(v) for v in shape)
        shapes.append((layer, Rect(x_lo, y_lo, x_hi, y_hi)))
    name = str(spec.get("name") or f"{net_name}/p{index}")
    return Pin(name, shapes)


def change_from_dict(record: Dict[str, object]) -> Change:
    """One change from its JSON record; raises ValueError on bad input."""
    op = record.get("op")
    if op == "add_net":
        net_name = str(record["net"])
        pins = [
            _pin_from_spec(spec, net_name, index)
            for index, spec in enumerate(record.get("pins", ()))
        ]
        net = Net(
            net_name,
            pins,
            wire_type=str(record.get("wire_type", "default")),
            weight=float(record.get("weight", 1.0)),
        )
        return AddNet(net)
    if op == "remove_net":
        return RemoveNet(str(record["net"]))
    if op == "move_pin":
        return MovePin(
            str(record["net"]),
            str(record["pin"]),
            int(record.get("dx", 0)),
            int(record.get("dy", 0)),
        )
    if op == "resize_blockage":
        rect = None
        if "rect" in record:
            rect = Rect(*(int(v) for v in record["rect"]))
        expand = record.get("expand")
        return ResizeBlockage(
            int(record["index"]),
            rect=rect,
            expand=int(expand) if expand is not None else None,
        )
    raise ValueError(f"unknown ECO op {op!r}")


def changes_from_json(document: Dict[str, object]) -> List[Change]:
    """Parse a ``{"changes": [...]}`` document (the --eco file format)."""
    records = document.get("changes")
    if not isinstance(records, list):
        raise ValueError('ECO document wants a top-level "changes" list')
    return [change_from_dict(record) for record in records]


def changes_to_json(changes: Sequence[Change]) -> Dict[str, object]:
    return {"changes": [change.as_dict() for change in changes]}
