"""Role-based access control: a declared role/right matrix consulted before
every command.

Rights are (entity-kind, operation) pairs and roles hold exactly what the
config declares — nothing implicit. Customer-facing roles additionally
carry an ownership constraint: they act only on entities owned by the
acting customer, because a right alone cannot express "own cart".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import bundled
from .foundation import DomainError, EntityId


class DuplicateRole(DomainError):
    code = "DuplicateRole"


class UnknownRoleInAssignment(DomainError):
    code = "UnknownRoleInAssignment"


ALLOW = "Allow"
DENY = "Deny"


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

    def allowed(self) -> bool:
        return self.verdict == ALLOW

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "matched_role": self.matched_role,
                "reason": self.reason}


@dataclass
class RbacMatrix:
    """The loaded access matrix; immutable once active.

    ``permissive`` is the no-config fallback used by pattern-module unit
    tests: every check allows.
    """

    roles: dict[str, RoleDef] = field(default_factory=dict)
    assignments: dict[EntityId, frozenset[str]] = field(default_factory=dict)
    permissive: bool = False

    def role_names(self) -> list[str]:
        return sorted(self.roles)


def permissive_matrix() -> RbacMatrix:
    return RbacMatrix(permissive=True)


def load_rbac_config(config: dict) -> RbacMatrix:
    """Build the matrix from {roles: [...], assignments: [...]} declarations."""
    roles: dict[str, RoleDef] = {}
    for raw in config.get("roles", []):
        name = raw["name"]
        if name in roles:
            raise DuplicateRole(f"role {name!r} declared twice")
        rights = frozenset((str(kind), str(op)) for kind, op in raw.get("rights", []))
        roles[name] = RoleDef(name=name, rights=rights,
                              owner_only=bool(raw.get("owner_only", False)))

    assignments: dict[EntityId, frozenset[str]] = {}
    for raw in config.get("assignments", []):
        user = EntityId.parse(raw["user"])
        for role_name in raw["roles"]:
            if role_name not in roles:
                raise UnknownRoleInAssignment(
                    f"assignment for {user} names undeclared role {role_name!r}")
        assignments[user] = frozenset(raw["roles"])
    return RbacMatrix(roles=roles, assignments=assignments)


def check_access(matrix: RbacMatrix, user: EntityId, user_roles: set[str],
                 kind: str, operation: str, owner: EntityId | None,
                 target_missing: bool = False) -> AccessDecision:
    """Decide one (user, operation, target) triple.

    ``owner`` is the customer owning the target entity, or None for kinds
    without an owner. Owner-constrained roles are denied when the target
    does not resolve. Deny is a result, never an exception.
    """
    if user.kind == "system":
        return AccessDecision(ALLOW, "system", "system actor")
    if matrix.permissive:
        return AccessDecision(ALLOW, "*", "permissive mode, no matrix loaded")

    right = (kind, operation)
    saw_ownership_failure = False
    for role_name in sorted(user_roles):
        role = matrix.roles.get(role_name)
        if role is None or right not in role.rights:
            continue
        if role.owner_only and (target_missing or owner is not None):
            if target_missing or owner != user:
                saw_ownership_failure = True
                continue
        return AccessDecision(ALLOW, role_name,
                              f"role {role_name} grants {operation} on {kind}")
    if saw_ownership_failure:
        return AccessDecision(DENY, None, "not owner")
    return AccessDecision(DENY, None, "no role grants operation")


def default_matrix() -> RbacMatrix:
    """The access matrix declared in the bundled ``config/rbac.json``."""
    return load_rbac_config(json.loads(bundled.rbac_config().read_text(encoding="utf-8")))
