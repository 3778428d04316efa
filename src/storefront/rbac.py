"""Role-based access control: a declared role/right matrix consulted before
every command.

Rights are (entity-kind, operation) pairs and roles hold exactly what the
config declares — nothing implicit. Customer-facing roles additionally
carry an ownership constraint: they act only on entities owned by the
acting customer, because a right alone cannot express "own cart".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import bundled
from .commands import COMMANDS, parse_input
from .foundation import DomainError, EntityId, SchemaError
from .state import ALLOW, DENIED_ACCESS, DENY


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


@dataclass(frozen=True)
class AccessDecision:
    verdict: str
    matched_role: str | None
    reason: str

    @functools.cached_property
    def as_dict(self) -> dict:
        """The ``access`` of the records of this decision, built once per
        grant: one dict, shared by them all, so never mutate it. A Deny's
        holds its reason code; ``reason_text`` gives the reason back."""
        if self.verdict == DENY:
            return DENIED_ACCESS[_DENY_CODES[self.reason]]
        return {"role": self.matched_role, "verdict": self.verdict}


@dataclass
class RbacMatrix:
    """The loaded access matrix; immutable once active.

    ``roles`` is the declaration. ``grants`` is compiled from it, once per
    right ``(kind, operation)``, the first time a check asks for that
    right: the roles that grant it, in name order, as ``(role name,
    owner_only, Allow decision)``. So loading a matrix costs nothing per
    declared right, and a run pays only for the rights it checks.
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
            (name, role.owner_only,
             AccessDecision(ALLOW, name, f"role {name} grants {operation} on {kind}"))
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


SYSTEM_ALLOW = AccessDecision(ALLOW, "system", "system actor")
PERMISSIVE_ALLOW = AccessDecision(ALLOW, "*", "permissive mode, no matrix loaded")
NOT_OWNER = AccessDecision(DENY, None, "not owner")
NO_ROLE = AccessDecision(DENY, None, "no role grants operation")
NO_ROLES = frozenset()  # the roles of an actor whose entity carries none
_DENY_CODES = {NOT_OWNER.reason: "not-owner", NO_ROLE.reason: "no-role"}
# reason code -> reason, of a Deny and (None) of a command that did not parse
_DENIALS = {None: "not evaluated", **{code: reason for reason, code in _DENY_CODES.items()}}
_ALLOWS = {decision.matched_role: decision.reason for decision in (SYSTEM_ALLOW, PERMISSIVE_ALLOW)}


def reason_text(access: dict, command: str) -> str:
    """The ``reason`` of the decision a record of ``command`` holds as its
    ``access``: a Deny's from its code, an Allow's from its role."""
    if access["verdict"] != ALLOW:
        return _DENIALS[access.get("reason")]
    role = access["role"]
    return _ALLOWS.get(role) or f"role {role} grants {command} on {COMMANDS[command].kind}"


def check_access(matrix: RbacMatrix, user: EntityId, entity_roles,
                 kind: str, operation: str, owner: EntityId | None,
                 target_missing: bool = False) -> AccessDecision:
    """Decide one (user, operation, target) triple.

    The user holds the roles the matrix assigns to it and ``entity_roles``,
    the roles its own entity carries. ``owner`` is the customer owning the
    target entity, or None for kinds without an owner. Owner-constrained
    roles are denied when the target does not resolve. The first granting
    role by name decides. Deny is a result, never an exception. Each
    command's envelope inlines this decision; ``Engine.access_decision``
    makes it through this function.
    """
    if user.kind == "system":
        return SYSTEM_ALLOW
    if matrix.permissive:
        return PERMISSIVE_ALLOW
    assigned = matrix.assignments.get(user, ())
    saw_ownership_failure = False
    granting = matrix.grants.get((kind, operation))
    if granting is None:
        granting = matrix.compile_grant(kind, operation)
    for role_name, owner_only, allow in granting:
        if role_name not in entity_roles and role_name not in assigned:
            continue
        if owner_only and (target_missing or (owner is not None and owner != user)):
            saw_ownership_failure = True
            continue
        return allow
    return NOT_OWNER if saw_ownership_failure else NO_ROLE


def default_matrix() -> RbacMatrix:
    """The access matrix declared in the bundled ``config/rbac.json``, built
    once per content of the file in this process and shared: never change it."""
    return bundled.load(bundled.rbac_config(), "access config", load_rbac_config)
