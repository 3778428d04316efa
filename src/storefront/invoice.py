"""Invoice lifecycle: creation, preparation under billing policies,
rule-based validation with separation of duty, and payment settlement.

Billing policies and validation rules are declarative config, referenced by
name, so scenario scripts never embed rule logic. Who created, validated,
and accepted what is recorded on the documents themselves.
"""

from dataclasses import dataclass, field
from enum import Enum

from . import bundled
from .foundation import (
    SYSTEM,
    DomainError,
    EntityId,
    Fields,
    Money,
    Quantity,
    Record,
    Ref,
    SchemaError,
    money_amount,
    priced_amount,
    priced_sum,
    round_half_away,
)


class NotDraft(DomainError):
    code = "NotDraft"


class UnknownItem(DomainError):
    code = "UnknownItem"


class UnknownPolicy(DomainError):
    code = "UnknownPolicy"


class UnknownRule(DomainError):
    code = "UnknownRule"


class UnknownInvoice(DomainError):
    code = "UnknownInvoice"


class UnknownPayment(DomainError):
    code = "UnknownPayment"


class UnknownEmployee(DomainError):
    code = "UnknownEmployee"


class SeparationOfDutyViolation(DomainError):
    code = "SeparationOfDutyViolation"


class InvoiceNotPayable(DomainError):
    code = "InvoiceNotPayable"


class WrongCustomer(DomainError):
    code = "WrongCustomer"


class NonpositiveAmount(DomainError):
    code = "NonpositiveAmount"


class AlreadyValidated(DomainError):
    code = "AlreadyValidated"


class InvoiceState(str, Enum):
    DRAFT = "Draft"
    VALIDATED = "Validated"
    REJECTED = "Rejected"
    PARTIALLY_PAID = "PartiallyPaid"
    PAID = "Paid"


class PaymentMethod(str, Enum):
    CARD = "Card"
    TRANSFER = "Transfer"
    CASH = "Cash"


class PaymentState(str, Enum):
    RECEIVED = "Received"
    ACCEPTED = "Accepted"
    REJECTED = "Rejected"


@dataclass
class Employee(Record):
    id: EntityId
    name: str
    roles: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class InvoiceItem(Record):
    description: str
    product: Ref("product") | None
    quantity: Quantity
    unit_price: Money


INVOICE_ITEM = Fields({"description": str, "product": Ref("product"), "quantity": Quantity,
                       "unit_price": Money}, {"product"}, InvoiceItem)
EDIT = "edit"  # {"add": INVOICE_ITEM, quantity at least 1} or {"delete": description}


@dataclass
class Invoice(Record):
    id: EntityId
    customer: Ref("customer")
    items: list[InvoiceItem] = field(default_factory=list)
    state: InvoiceState = InvoiceState.DRAFT
    created_by: Ref("employee", "system") = SYSTEM
    validated_by: Ref("employee", "system") | None = None
    applied_policies: list[str] = field(default_factory=list)
    adjustments: list[tuple[str, Money]] = field(default_factory=list)
    # provenance back-references for cross-subsystem audits
    source_cart: Ref("cart") | None = None
    source_shipment: Ref("shipment") | None = None
    # sum of accepted payments, in minor units of the engine currency
    accepted: int = 0

    def subtotal(self, currency: str) -> Money:
        return priced_sum(self.items, currency)

    def total(self, currency: str) -> Money:
        """The subtotal plus each adjustment, all in ``currency``."""
        adjustments = [adjustment for _, adjustment in self.adjustments]
        return Money(priced_amount(self.items, currency) + money_amount(adjustments, currency),
                     currency)


@dataclass
class Payment(Record):
    id: EntityId
    invoice: Ref("invoice")
    customer: Ref("customer")
    amount: Money
    method: PaymentMethod
    state: PaymentState = PaymentState.RECEIVED
    validated_by: Ref("employee", "system") | None = None
    reasons: list[str] = field(default_factory=list)


# --- declarative policies and rules -----------------------------------------

class PolicyKind(str, Enum):
    PERCENTAGE_DISCOUNT = "percentage-discount"
    FLAT_FEE = "flat-fee"


# the kinds of validation rule, by the document a rule targets
RULE_KINDS = {"Invoice": ("nonempty-items", "nonnegative-total"),
              "Payment": ("amount-positive", "method-allowed", "overpayment-guard")}


@dataclass(frozen=True)
class BillingPolicy:
    """A named, deterministic invoice adjustment.

    ``percentage-discount`` subtracts a whole-number percent of the item
    subtotal (halves rounded away from zero); with ``loyalty_only`` it
    applies a zero adjustment to non-members. ``flat-fee`` adds a fixed
    non-negative charge.
    """

    name: str
    kind: PolicyKind
    percent: int = 0
    fee: int = 0
    loyalty_only: bool = False

    def adjustment(self, item_subtotal: Money, loyalty_member: bool) -> Money:
        if self.kind is PolicyKind.PERCENTAGE_DISCOUNT:
            if self.loyalty_only and not loyalty_member:
                return Money.zero(item_subtotal.currency)
            discount = round_half_away(item_subtotal.amount * self.percent, 100)
            return Money(-discount, item_subtotal.currency)
        return Money(self.fee, item_subtotal.currency)


@dataclass(frozen=True)
class ValidationRule:
    """A named pure predicate over an invoice or a payment."""

    name: str
    target: str  # "Invoice" or "Payment"
    kind: str
    methods: tuple[str, ...] = ()

    def check_invoice(self, invoice: Invoice, currency: str) -> bool:
        if self.kind == "nonempty-items":
            return len(invoice.items) > 0
        return invoice.total(currency).amount >= 0

    def check_payment(self, payment: Payment, invoice_total: Money,
                      accepted_before: Money) -> bool:
        if self.kind == "amount-positive":
            return payment.amount.amount > 0
        if self.kind == "method-allowed":
            return payment.method.value in self.methods
        return accepted_before.amount + payment.amount.amount <= invoice_total.amount


@dataclass(frozen=True)
class RuleBook:
    """The loaded policy/rule config, keyed by name."""

    policies: dict[str, BillingPolicy]
    rules: dict[str, ValidationRule]

    @classmethod
    def from_config(cls, data) -> "RuleBook":
        """The rule book of a policy config, whose shape is declared in
        ``commands.INPUT_FILES``."""
        from .commands import parse_input  # commands imports this module
        config = parse_input("policy config", data)
        policies: dict[str, BillingPolicy] = {}
        for raw in config.get("billing_policies", ()):
            name, kind = raw["name"], raw["kind"]
            percent, fee = raw.get("percent", 0), raw.get("amount", 0)
            if not name or name in policies:
                raise SchemaError(f"billing policy name {name!r} empty or declared twice")
            if kind is PolicyKind.PERCENTAGE_DISCOUNT and not 0 <= percent <= 100:
                raise SchemaError(f"percent must be 0..100 in policy {name}")
            if kind is PolicyKind.FLAT_FEE and fee < 0:
                raise SchemaError(f"fee must be >= 0 in policy {name}")
            policies[name] = BillingPolicy(name, kind, percent, fee,
                                           raw.get("loyalty_only", False))

        rules: dict[str, ValidationRule] = {}
        for raw in config.get("validation_rules", ()):
            name, target, kind = raw["name"], raw["target"], raw["kind"]
            if not name or name in rules:
                raise SchemaError(f"validation rule name {name!r} empty or declared twice")
            if kind not in RULE_KINDS.get(target, ()):
                raise SchemaError(f"rule kind {kind!r} invalid for target {target!r}")
            rules[name] = ValidationRule(name, target, kind,
                                         tuple(method.value for method in raw.get("methods", ())))
        return cls(policies=policies, rules=rules)

    def policy(self, name: str) -> BillingPolicy:
        policy = self.policies.get(name)
        if policy is None:
            raise UnknownPolicy(f"no billing policy named {name!r}")
        return policy

    def rule(self, name: str, target: str) -> ValidationRule:
        rule = self.rules.get(name)
        if rule is None:
            raise UnknownRule(f"no validation rule named {name!r}")
        if rule.target != target:
            raise UnknownRule(f"rule {name!r} targets {rule.target}, not {target}")
        return rule


def default_rulebook() -> RuleBook:
    """The rule book of the bundled ``config/policies.json``, built once per
    content of the file in this process and shared by every engine, which
    only reads it."""
    return bundled.load(bundled.policies_config(), "policy config", RuleBook.from_config)


# --- operations --------------------------------------------------------------

def create_employee(txn, name: str, roles: list[str] | None = None) -> EntityId:
    employee_id = txn.next_id("employee")
    txn.create("employees", Employee(id=employee_id, name=name,
                                     roles=set(roles or ())))
    return employee_id


def create_invoice(txn, creator: Ref("employee", "system"),
                   customer_id: Ref("customer")) -> EntityId:
    if creator != SYSTEM:
        txn.state.need("employees", creator)
    txn.state.need("customers", customer_id)
    invoice_id = txn.next_id("invoice")
    txn.create("invoices", Invoice(id=invoice_id, customer=customer_id,
                                   created_by=creator))
    return invoice_id


def create_invoice_for_cart(txn, cart) -> EntityId:
    """Checkout path: a draft invoice with one item per cart line."""
    items = []
    for line in cart.items:
        product = txn.state.stores["products"][line.product]
        items.append(InvoiceItem(description=product.name, product=line.product,
                                 quantity=line.quantity,
                                 unit_price=line.unit_price))
    invoice_id = txn.next_id("invoice")
    txn.create("invoices", Invoice(id=invoice_id, customer=cart.customer,
                                   items=items, created_by=SYSTEM,
                                   source_cart=cart.id))
    return invoice_id


def create_invoice_for_shipment(txn, customer_id: EntityId,
                                items: list[InvoiceItem],
                                shipment_id: EntityId) -> EntityId:
    """Shipping path: an already-validated invoice for the dispatched goods."""
    invoice_id = txn.next_id("invoice")
    txn.create("invoices", Invoice(id=invoice_id, customer=customer_id,
                                   items=items, state=InvoiceState.VALIDATED,
                                   created_by=SYSTEM, validated_by=SYSTEM,
                                   source_shipment=shipment_id))
    return invoice_id


def prepare_invoice(txn, invoice_id: Ref("invoice"), edits: list[EDIT] = (),
                    policies: list[str] = (), *, rulebook: RuleBook, currency: str) -> Money:
    """Apply item edits in order, then the named policies once each.

    Each edit is ``{"add": InvoiceItem}`` or ``{"delete": description}``;
    deletes remove the first item with that description. Returns the new
    total after the recorded adjustments.
    """
    invoice = txn.state.need("invoices", invoice_id)
    if invoice.state is not InvoiceState.DRAFT:
        raise NotDraft(f"invoice {invoice_id} is {invoice.state.value}")
    for name in policies:
        rulebook.policy(name)

    invoice = txn.get_mut("invoices", invoice_id)
    for edit in edits:
        action, value = next(iter(edit.items()))
        if action == "add":
            if value.product is not None:
                txn.state.need("products", value.product)
            invoice.items.append(value)
        else:
            for item in invoice.items:
                if item.description == value:
                    invoice.items.remove(item)
                    break
            else:
                raise UnknownItem(f"no invoice item described as {value!r}")

    customer = txn.state.stores["customers"][invoice.customer]
    item_subtotal = invoice.subtotal(currency)
    for name in policies:
        policy = rulebook.policy(name)
        adjustment = policy.adjustment(item_subtotal, customer.loyalty_member)
        invoice.applied_policies.append(name)
        invoice.adjustments.append((name, adjustment))
    return invoice.total(currency)


def validate_invoice(txn, validator: Ref("employee"), invoice_id: Ref("invoice"),
                     rules: list[str] = (),
                     *, rulebook: RuleBook, currency: str) -> tuple[str, list[str]]:
    """Run the named invoice rules; all-pass validates, any-fail rejects.

    The creator may never validate their own invoice. System-created
    invoices may be validated by any employee.
    """
    txn.state.need("employees", validator)
    invoice = txn.state.need("invoices", invoice_id)
    if invoice.state is not InvoiceState.DRAFT:
        raise NotDraft(f"invoice {invoice_id} is {invoice.state.value}")
    rules = [rulebook.rule(name, "Invoice") for name in rules]
    if invoice.created_by.kind == "employee" and validator == invoice.created_by:
        raise SeparationOfDutyViolation(
            f"{validator} created invoice {invoice_id} and cannot validate it")

    failed = [rule.name for rule in rules
              if not rule.check_invoice(invoice, currency)]
    invoice = txn.get_mut("invoices", invoice_id)
    invoice.validated_by = validator
    invoice.state = InvoiceState.REJECTED if failed else InvoiceState.VALIDATED
    return invoice.state.value, failed


def accepted_sum(state, invoice_id: EntityId, currency: str) -> Money:
    return Money(state.need("invoices", invoice_id).accepted, currency)


def record_payment(txn, customer_id: Ref("customer"), invoice_id: Ref("invoice"),
                   amount: Money, method: PaymentMethod) -> EntityId:
    invoice = txn.state.need("invoices", invoice_id)
    if invoice.state not in (InvoiceState.VALIDATED, InvoiceState.PARTIALLY_PAID):
        raise InvoiceNotPayable(f"invoice {invoice_id} is {invoice.state.value}")
    if customer_id != invoice.customer:
        raise WrongCustomer(
            f"invoice {invoice_id} belongs to {invoice.customer}, not {customer_id}")
    if amount.amount <= 0:
        raise NonpositiveAmount(f"payment must be > 0, got {amount.amount}")
    payment_id = txn.next_id("payment")
    txn.create("payments", Payment(id=payment_id, invoice=invoice_id,
                                   customer=customer_id, amount=amount,
                                   method=method))
    return payment_id


def validate_payment(txn, validator: Ref("employee"), payment_id: Ref("payment"),
                     rules: list[str] = (),
                     *, rulebook: RuleBook, currency: str) -> tuple[str, list[str]]:
    """Accept or reject a received payment and advance the invoice.

    Acceptance that would push the accepted sum past the invoice total is
    always rejected with reason ``overpayment``, whether or not the guard
    rule was named.
    """
    txn.state.need("employees", validator)
    payment = txn.state.need("payments", payment_id)
    if payment.state is not PaymentState.RECEIVED:
        raise AlreadyValidated(f"payment {payment_id} is {payment.state.value}")
    rules = [rulebook.rule(name, "Payment") for name in rules]

    invoice = txn.state.need("invoices", payment.invoice)
    total = invoice.total(currency)
    accepted_before = accepted_sum(txn.state, invoice.id, currency)

    reasons = [rule.name for rule in rules
               if not rule.check_payment(payment, total, accepted_before)]
    if accepted_before.amount + payment.amount.amount > total.amount:
        if "overpayment" not in reasons:
            reasons.append("overpayment")
    # the named guard rule reports under the canonical reason
    reasons = ["overpayment" if r == "overpayment-guard" else r for r in reasons]
    reasons = sorted(set(reasons))

    payment = txn.get_mut("payments", payment_id)
    payment.validated_by = validator
    if reasons:
        payment.state = PaymentState.REJECTED
        payment.reasons = reasons
        return payment.state.value, reasons

    payment.state = PaymentState.ACCEPTED
    invoice = txn.get_mut("invoices", invoice.id)
    accepted_now = accepted_before.add(payment.amount)
    invoice.accepted = accepted_now.amount
    if accepted_now.amount == total.amount:
        invoice.state = InvoiceState.PAID
    else:
        invoice.state = InvoiceState.PARTIALLY_PAID
    return payment.state.value, []


def invoice_balance(state, invoice_id: Ref("invoice"), currency: str) -> Money:
    invoice = state.need("invoices", invoice_id)
    return invoice.total(currency).sub(accepted_sum(state, invoice_id, currency))
