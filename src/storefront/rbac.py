"""Role-based access control: a declared role/right matrix consulted before
every command.

Rights are (entity-kind, operation) pairs and roles hold exactly what the
config declares — nothing implicit. Customer-facing roles additionally
carry an ownership constraint: they act only on entities owned by the
acting customer, because a right alone cannot express "own cart". Each
command's envelope decides from the grants here (``commands._ACCESS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import bundled
from .commands import COMMANDS, parse_input
from .foundation import DomainError, EntityId, SchemaError
from .state import ALLOW, DENIED_ACCESS


class DuplicateRole(DomainError):
    code = "DuplicateRole"


class UnknownRoleInAssignment(DomainError):
    code = "UnknownRoleInAssignment"


# every right a role may hold: (target entity kind, command) per declared command
DECLARED_RIGHTS = frozenset((spec.kind, name) for name, spec in COMMANDS.items())


@dataclass(frozen=True)
class RoleDef:
    name: str
    rights: frozenset[tuple[str, str]]
    owner_only: bool = False


@dataclass
class RbacMatrix:
    """The loaded access matrix; immutable once active.

    ``roles`` is the declaration. ``grants`` is compiled from it, once per
    right ``(kind, operation)``, the first time a check asks for that
    right: the roles that grant it, in name order, as ``(role name,
    owner_only, access)``: ``access`` is the one dict that all the records
    of the role's Allow hold, so never mutate it. So loading a matrix costs
    nothing per declared right, and a run pays only for the rights it checks.
    ``permissive`` is the no-config fallback used by pattern-module unit
    tests: every check allows.
    """

    roles: dict[str, RoleDef] = field(default_factory=dict)
    assignments: dict[EntityId, frozenset[str]] = field(default_factory=dict)
    permissive: bool = False
    grants: dict[tuple[str, str], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def compile_grant(self, kind: str, operation: str) -> tuple:
        """Compile and keep the ``grants`` entry of one right."""
        right = (kind, operation)
        self.grants[right] = granting = tuple(
            (name, role.owner_only, {"role": name, "verdict": ALLOW})
            for name, role in sorted(self.roles.items()) if right in role.rights)
        return granting


def permissive_matrix() -> RbacMatrix:
    return RbacMatrix(permissive=True)


def load_rbac_config(config) -> RbacMatrix:
    """Build the matrix from an access config, declared in
    ``commands.INPUT_FILES``. A right that is no ``[kind, command]`` pair
    naming a declared command (it would grant nothing) and a second
    assignment for one user are each a ``SchemaError``."""
    config = parse_input("access config", config)
    roles: dict[str, RoleDef] = {}
    for raw in config.get("roles", ()):
        name, rights = raw["name"], raw.get("rights", ())
        if name in roles:
            raise DuplicateRole(f"role {name!r} declared twice")
        if name in _ALLOWS:  # the log could not tell its grants from these
            raise SchemaError(f"role name {name!r} is reserved")
        for right in rights:
            if tuple(right) not in DECLARED_RIGHTS:
                raise SchemaError(f"role {name!r}: right {right} names no declared command")
        roles[name] = RoleDef(name=name, rights=frozenset(map(tuple, rights)),
                              owner_only=raw.get("owner_only", False))

    assignments: dict[EntityId, frozenset[str]] = {}
    for raw in config.get("assignments", ()):
        user = raw["user"]
        if user in assignments:
            raise SchemaError(f"user {user} assigned twice")
        for role_name in raw["roles"]:
            if role_name not in roles:
                raise UnknownRoleInAssignment(
                    f"assignment for {user} names undeclared role {role_name!r}")
        assignments[user] = frozenset(raw["roles"])
    return RbacMatrix(roles=roles, assignments=assignments)


# role -> reason, of an Allow that no declared role grants
_ALLOWS = {"system": "system actor", "*": "permissive mode, no matrix loaded"}
SYSTEM_ALLOW, PERMISSIVE_ALLOW = ({"role": role, "verdict": ALLOW} for role in _ALLOWS)
NOT_OWNER, NO_ROLE = DENIED_ACCESS["not-owner"], DENIED_ACCESS["no-role"]
# reason code -> reason, of a Deny (the text its AccessDenied carries) and
# (None) of a command that did not parse
DENIALS = {None: "not evaluated", "not-owner": "not owner", "no-role": "no role grants operation"}


def reason_text(access: dict, command: str) -> str:
    """The ``reason`` of the decision a record of ``command`` holds as its
    ``access``: a Deny's from its code, an Allow's from its role."""
    if access["verdict"] != ALLOW:
        return DENIALS[access.get("reason")]
    role = access["role"]
    return _ALLOWS.get(role) or f"role {role} grants {command} on {COMMANDS[command].kind}"


def default_matrix() -> RbacMatrix:
    """The access matrix declared in the bundled ``config/rbac.json``, built
    once per content of the file in this process and shared: never change it."""
    return bundled.load(bundled.rbac_config(), "access config", load_rbac_config)
