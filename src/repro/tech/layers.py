"""Layer stack with alternating preferred directions.

Wiring layers are numbered 1, 2, 3, ... (M1, M2, ...).  Between consecutive
wiring layers l and l+1 sits via layer l (V_l).  On each wiring layer
almost all wires run in the layer's preferred direction; orthogonal pieces
are jogs (Sec. 1.1).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional


class Direction(enum.Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


class Layer:
    """One wiring layer of the stack."""

    __slots__ = ("index", "name", "direction", "pitch", "min_width", "min_spacing")

    def __init__(
        self,
        index: int,
        direction: Direction,
        pitch: int,
        min_width: int,
        min_spacing: int,
        name: Optional[str] = None,
    ) -> None:
        if pitch < min_width + min_spacing:
            raise ValueError(
                f"layer {index}: pitch {pitch} below min_width + min_spacing "
                f"({min_width} + {min_spacing})"
            )
        self.index = index
        self.name = name if name is not None else f"M{index}"
        self.direction = direction
        self.pitch = pitch
        self.min_width = min_width
        self.min_spacing = min_spacing

    def __repr__(self) -> str:
        return f"Layer({self.name}, {self.direction.value}, pitch={self.pitch})"


class LayerStack:
    """Ordered collection of wiring layers with alternating directions.

    Via layer ``l`` connects wiring layers ``l`` and ``l + 1``.
    """

    def __init__(self, layers: Iterable[Layer]) -> None:
        self._layers: Dict[int, Layer] = {}
        for layer in layers:
            if layer.index in self._layers:
                raise ValueError(f"duplicate layer index {layer.index}")
            self._layers[layer.index] = layer
        indices = sorted(self._layers)
        if not indices:
            raise ValueError("layer stack must not be empty")
        if indices != list(range(indices[0], indices[0] + len(indices))):
            raise ValueError("layer indices must be contiguous")
        for lo, hi in zip(indices, indices[1:]):
            if self._layers[lo].direction == self._layers[hi].direction:
                raise ValueError(
                    f"layers {lo} and {hi} share a preferred direction; "
                    "horizontal and vertical layers must alternate"
                )
        self._indices = indices

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self):
        return (self._layers[i] for i in self._indices)

    def __getitem__(self, index: int) -> Layer:
        try:
            return self._layers[index]
        except KeyError:
            names = ", ".join(
                f"{i} ({self._layers[i].name})" for i in self._indices
            )
            raise KeyError(
                f"no wiring layer {index}; stack has layers {names}"
            ) from None

    @property
    def bottom(self) -> int:
        return self._indices[0]

    @property
    def top(self) -> int:
        return self._indices[-1]

    @property
    def indices(self) -> List[int]:
        return list(self._indices)

    def via_layers(self) -> List[int]:
        """Indices l of via layers V_l connecting wiring layers l and l+1."""
        return self._indices[:-1]

    def has_layer(self, index: int) -> bool:
        return index in self._layers

    def direction(self, index: int) -> Direction:
        return self[index].direction

    def horizontal_layers(self) -> List[int]:
        return [i for i in self._indices if self[i].direction is Direction.HORIZONTAL]
