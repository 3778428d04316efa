"""storefront: an event-logged business-to-consumer store engine.

Five cooperating subsystems — catalog, shopping cart, invoicing, order
fulfillment, and stock — run behind one serialized command dispatcher with
a role-based access check in front and a replayable event log behind.
"""

from .engine import Engine, read_log
from .foundation import (
    SYSTEM,
    AccessDenied,
    DomainError,
    EntityId,
    Money,
    Quantity,
    SchemaError,
)
from .invoice import RuleBook, default_rulebook
from .rbac import default_matrix, load_rbac_config, permissive_matrix
from .scenario import Scenario, load_scenario, parse_scenario, run_scenario
from .state import EngineState, EventRecord, replay

__version__ = "0.2.0"

__all__ = [
    "AccessDenied",
    "DomainError",
    "Engine",
    "EngineState",
    "EntityId",
    "EventRecord",
    "Money",
    "Quantity",
    "RuleBook",
    "SYSTEM",
    "Scenario",
    "SchemaError",
    "default_matrix",
    "default_rulebook",
    "load_rbac_config",
    "load_scenario",
    "parse_scenario",
    "permissive_matrix",
    "read_log",
    "replay",
    "run_scenario",
]
