"""Global routing (Sec. 2 of the paper).

* :mod:`repro.groute.graph` - the 3D global routing graph over tiles and
  layers (Sec. 2.1);
* :mod:`repro.groute.capacity` - edge capacity estimation from usable
  track-graph vertices, intra-tile prerouting and stacked-via
  preprocessing (Sec. 2.5);
* :mod:`repro.groute.resources` - resources and convex consumption
  functions gamma (space / power / yield, Fig. 1) with optimal
  extra-space assignment (Eq. 1);
* :mod:`repro.groute.steiner_oracle` - the block oracle: Algorithm 1
  (path composition Steiner trees) over plain Dijkstra;
* :mod:`repro.groute.sharing` - the min-max resource sharing FPTAS
  (Algorithm 2, Mueller-Radke-Vygen), with the block simulation of
  its parallel version (Sec. 5.1);
* :mod:`repro.groute.rounding` - randomized rounding plus
  rip-up-and-reroute postprocessing (Sec. 2.4);
* :mod:`repro.groute.router` - the GlobalRouter facade producing
  corridors for detailed routing.
"""

from repro.groute.graph import GlobalRoutingGraph, GlobalRoute
from repro.groute.resources import ResourceModel, space_usage, power_usage, yield_loss
from repro.groute.sharing import ResourceSharingSolver
from repro.groute.router import GlobalRouter, GlobalRoutingResult

__all__ = [
    "GlobalRoutingGraph",
    "GlobalRoute",
    "ResourceModel",
    "space_usage",
    "power_usage",
    "yield_loss",
    "ResourceSharingSolver",
    "GlobalRouter",
    "GlobalRoutingResult",
]
