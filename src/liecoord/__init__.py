"""Coordinated motion of multi-agent swarms on Lie groups.

The package exports the three groups and the names of the README example;
everything else is imported from its module: liecoord.groups, .graphs,
.controllers, .simulator, .analysis, .scenario and .cli.
"""

from .groups import SE2, SE3, SO3
from .graphs import CommGraph
from .simulator import ScenarioConfig, run
from .analysis import check_coordination, generate_tc_configuration

__version__ = "0.1.0"
