"""Invoice lifecycle: preparation policies, validation with separation of
duty, payment recording and settlement."""

import decimal
import json

import pytest
from hypothesis import given, settings, strategies as st

from helpers import new_customer, new_employee, product_id, validated_invoice
from storefront import DomainError, EntityId, Money, bundled
from storefront.invoice import RuleBook, default_rulebook

from conftest import fresh_engine


def discount_oracle(subtotal, percent):
    """Independent half-up percentage in integer minor units."""
    quotient = decimal.Decimal(subtotal * percent) / decimal.Decimal(100)
    return int(quotient.to_integral_value(rounding=decimal.ROUND_HALF_UP))


def test_bundled_policy_config_matches_defaults():
    on_disk = json.loads(bundled.policies_config().read_text(encoding="utf-8"))
    rulebook = default_rulebook()
    assert rulebook == RuleBook.from_config(on_disk)
    assert sorted(rulebook.policies) == ["handling-fee", "loyalty-5pct"]
    assert sorted(rulebook.rules) == ["amount-positive", "method-allowed", "nonempty-items",
                                      "nonnegative-total", "overpayment-guard"]
    assert default_rulebook() is rulebook  # loaded once per process


def test_rulebook_rejects_malformed_config():
    for broken in (
        {"billing_policies": [{"name": "x", "kind": "mystery"}]},
        {"billing_policies": [{"name": "x", "kind": "percentage-discount",
                               "percent": 150}]},
        {"billing_policies": [{"name": "x", "kind": "flat-fee", "amount": -1}]},
        {"validation_rules": [{"name": "x", "target": "Invoice",
                               "kind": "amount-positive"}]},
        {"validation_rules": [{"name": "x", "target": "Elsewhere",
                               "kind": "nonempty-items"}]},
    ):
        with pytest.raises(DomainError):
            RuleBook.from_config(broken)


def test_create_invoice_draft(eng):
    customer = new_customer(eng)
    clerk = new_employee(eng)
    result = eng.execute(clerk, "create_invoice", creator=clerk, customer=customer)
    inv = eng.state.stores["invoices"][EntityId.parse(result["invoice"])]
    assert inv.state.value == "Draft"
    assert str(inv.created_by) == clerk
    assert inv.items == []


def test_checkout_invoice_has_system_creator(eng):
    customer = new_customer(eng)
    cart = eng.execute(customer, "create_cart", customer=customer)["cart"]
    eng.execute(customer, "add_item", cart=cart,
                product=product_id(eng, "Gadget"), qty=1)
    result = eng.execute(customer, "checkout", cart=cart)
    replayed = eng.replayed_state()
    inv = replayed.stores["invoices"][EntityId.parse(result["invoice"])]
    assert str(inv.created_by) == "system:0"


def test_create_invoice_unknown_customer(eng):
    clerk = new_employee(eng)
    with pytest.raises(DomainError) as exc:
        eng.execute(clerk, "create_invoice", creator=clerk, customer="customer:99")
    assert exc.value.code == "UnknownCustomer"


def test_prepare_applies_loyalty_discount(eng):
    customer = new_customer(eng, loyalty=True)
    clerk = new_employee(eng)
    invoice = eng.execute(clerk, "create_invoice", creator=clerk,
                          customer=customer)["invoice"]
    result = eng.execute(
        clerk, "prepare_invoice", invoice=invoice,
        edits=[{"add": {"description": "A", "quantity": 1, "unit_price": 1000}},
               {"add": {"description": "B", "quantity": 1, "unit_price": 500}}],
        policies=["loyalty-5pct"])
    expected_discount = discount_oracle(1500, 5)
    assert expected_discount == 75
    assert result["total"] == {"amount": 1500 - expected_discount,
                               "currency": "USD"}
    inv = eng.state.stores["invoices"][EntityId.parse(invoice)]
    assert [(name, money.amount) for name, money in inv.adjustments] == \
        [("loyalty-5pct", -expected_discount)]


def test_loyalty_policy_is_zero_for_non_members(eng):
    customer = new_customer(eng, loyalty=False)
    clerk = new_employee(eng)
    invoice = eng.execute(clerk, "create_invoice", creator=clerk,
                          customer=customer)["invoice"]
    result = eng.execute(
        clerk, "prepare_invoice", invoice=invoice,
        edits=[{"add": {"description": "A", "quantity": 1, "unit_price": 1000}}],
        policies=["loyalty-5pct"])
    assert result["total"]["amount"] == 1000


def test_prepare_delete_only_item(eng):
    customer = new_customer(eng)
    clerk = new_employee(eng)
    invoice = eng.execute(clerk, "create_invoice", creator=clerk,
                          customer=customer)["invoice"]
    eng.execute(clerk, "prepare_invoice", invoice=invoice,
                edits=[{"add": {"description": "A", "quantity": 1,
                                "unit_price": 700}}])
    result = eng.execute(clerk, "prepare_invoice", invoice=invoice,
                         edits=[{"delete": "A"}])
    assert result["total"] == {"amount": 0, "currency": "USD"}


def test_prepare_errors(eng):
    customer = new_customer(eng)
    clerk = new_employee(eng)
    checker = new_employee(eng, name="Vik")
    invoice = eng.execute(clerk, "create_invoice", creator=clerk,
                          customer=customer)["invoice"]
    with pytest.raises(DomainError) as exc:
        eng.execute(clerk, "prepare_invoice", invoice=invoice,
                    edits=[{"delete": "missing"}])
    assert exc.value.code == "UnknownItem"
    with pytest.raises(DomainError) as exc:
        eng.execute(clerk, "prepare_invoice", invoice=invoice,
                    policies=["no-such-policy"])
    assert exc.value.code == "UnknownPolicy"
    eng.execute(clerk, "prepare_invoice", invoice=invoice,
                edits=[{"add": {"description": "A", "quantity": 1,
                                "unit_price": 100}}])
    eng.execute(checker, "validate_invoice", validator=checker, invoice=invoice,
                rules=["nonempty-items"])
    with pytest.raises(DomainError) as exc:
        eng.execute(clerk, "prepare_invoice", invoice=invoice,
                    edits=[{"add": {"description": "B", "quantity": 1,
                                    "unit_price": 100}}])
    assert exc.value.code == "NotDraft"


def test_an_added_item_of_an_unstored_product_is_refused(eng):
    clerk = new_employee(eng)
    invoice = eng.execute(clerk, "create_invoice", creator=clerk,
                          customer=new_customer(eng))["invoice"]
    records = len(eng.state.log)
    with pytest.raises(DomainError) as exc:
        eng.execute(clerk, "prepare_invoice", invoice=invoice,
                    edits=[{"add": {"description": "A", "product": "product:999",
                                    "quantity": 1, "unit_price": 100}}])
    assert (exc.value.code, str(exc.value)) == ("UnknownProduct", "no product product:999")
    (record,) = eng.state.log[records:]
    assert (record.error, record.deltas) == ("UnknownProduct", [])
    assert eng.state.stores["invoices"][EntityId.parse(invoice)].items == []


def test_creator_cannot_validate_own_invoice(eng):
    customer = new_customer(eng)
    clerk = new_employee(eng)
    invoice = eng.execute(clerk, "create_invoice", creator=clerk,
                          customer=customer)["invoice"]
    eng.execute(clerk, "prepare_invoice", invoice=invoice,
                edits=[{"add": {"description": "A", "quantity": 1,
                                "unit_price": 100}}])
    with pytest.raises(DomainError) as exc:
        eng.execute(clerk, "validate_invoice", validator=clerk, invoice=invoice,
                    rules=["nonempty-items"])
    assert exc.value.code == "SeparationOfDutyViolation"
    assert eng.query("invoice_state", invoice=invoice) == "Draft"


def test_any_employee_may_validate_system_invoices(eng):
    customer = new_customer(eng)
    cart = eng.execute(customer, "create_cart", customer=customer)["cart"]
    eng.execute(customer, "add_item", cart=cart,
                product=product_id(eng, "Gadget"), qty=2)
    invoice = eng.execute(customer, "checkout", cart=cart)["invoice"]
    checker = new_employee(eng, name="Vik")
    result = eng.execute(checker, "validate_invoice", validator=checker,
                         invoice=invoice, rules=["nonempty-items"])
    assert result["verdict"] == "Validated"


def test_validation_verdicts(eng):
    customer = new_customer(eng)
    clerk = new_employee(eng)
    checker = new_employee(eng, name="Vik")

    good = eng.execute(clerk, "create_invoice", creator=clerk,
                       customer=customer)["invoice"]
    eng.execute(clerk, "prepare_invoice", invoice=good,
                edits=[{"add": {"description": "A", "quantity": 1,
                                "unit_price": 100}}])
    result = eng.execute(checker, "validate_invoice", validator=checker,
                         invoice=good, rules=["nonempty-items",
                                              "nonnegative-total"])
    assert result == {"verdict": "Validated", "reasons": []}

    empty = eng.execute(clerk, "create_invoice", creator=clerk,
                        customer=customer)["invoice"]
    result = eng.execute(checker, "validate_invoice", validator=checker,
                         invoice=empty, rules=["nonempty-items"])
    assert result == {"verdict": "Rejected", "reasons": ["nonempty-items"]}
    assert eng.query("invoice_state", invoice=empty) == "Rejected"
    inv = eng.state.stores["invoices"][EntityId.parse(empty)]
    assert str(inv.validated_by) == checker

    with pytest.raises(DomainError) as exc:
        eng.execute(checker, "validate_invoice", validator=checker, invoice=good,
                    rules=["no-such-rule"])
    assert exc.value.code == "NotDraft"  # already validated above

    draft = eng.execute(clerk, "create_invoice", creator=clerk,
                        customer=customer)["invoice"]
    with pytest.raises(DomainError) as exc:
        eng.execute(checker, "validate_invoice", validator=checker, invoice=draft,
                    rules=["no-such-rule"])
    assert exc.value.code == "UnknownRule"
    with pytest.raises(DomainError) as exc:
        eng.execute(checker, "validate_invoice", validator=checker, invoice=draft,
                    rules=["amount-positive"])  # targets Payment
    assert exc.value.code == "UnknownRule"


def test_record_payment_rules(eng):
    customer = new_customer(eng, loyalty=True)
    other = new_customer(eng, name="Ben")
    invoice = validated_invoice(eng, customer)  # total 1425

    payment = eng.execute(customer, "record_payment", customer=customer,
                          invoice=invoice, amount=1000, method="Card")["payment"]
    assert eng.query("payment_state", payment=payment) == "Received"
    assert eng.query("invoice_state", invoice=invoice) == "Validated"

    with pytest.raises(DomainError) as exc:
        eng.execute(other, "record_payment", customer=other, invoice=invoice,
                    amount=100, method="Card")
    assert exc.value.code == "WrongCustomer"
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "record_payment", customer=customer,
                    invoice=invoice, amount=0, method="Card")
    assert exc.value.code == "NonpositiveAmount"

    clerk = new_employee(eng, name="Iris2", roles=["InvoiceClerk"])
    draft = eng.execute(clerk, "create_invoice", creator=clerk,
                        customer=customer)["invoice"]
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "record_payment", customer=customer, invoice=draft,
                    amount=100, method="Card")
    assert exc.value.code == "InvoiceNotPayable"


@pytest.mark.parametrize("amount", [Money(5, "EUR"), {"amount": 5, "currency": "EUR"}],
                         ids=["money", "object"])
def test_a_payment_in_another_currency_is_refused_before_access(eng, amount):
    customer = new_customer(eng, loyalty=True)
    invoice = validated_invoice(eng, customer)
    records = len(eng.state.log)
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "record_payment", customer=customer, invoice=invoice,
                    amount=amount, method="Card")
    assert exc.value.code == "CurrencyMismatch"
    (record,) = eng.state.log[records:]
    assert (record.error, record.access, record.deltas) == (
        "CurrencyMismatch", {"role": None, "verdict": None}, [])


def test_payment_settlement_to_paid(eng):
    customer = new_customer(eng, loyalty=True)
    checker = new_employee(eng, name="payval", roles=["InvoiceValidator"])
    invoice = validated_invoice(eng, customer)  # total 1425

    first = eng.execute(customer, "record_payment", customer=customer,
                        invoice=invoice, amount=1000, method="Card")["payment"]
    eng.execute(checker, "validate_payment", validator=checker, payment=first,
                rules=["amount-positive", "method-allowed"])
    assert eng.query("invoice_state", invoice=invoice) == "PartiallyPaid"

    second = eng.execute(customer, "record_payment", customer=customer,
                         invoice=invoice, amount=425, method="Transfer")["payment"]
    eng.execute(checker, "validate_payment", validator=checker, payment=second,
                rules=["amount-positive", "method-allowed"])
    assert eng.query("invoice_state", invoice=invoice) == "Paid"
    assert eng.query("invoice_balance", invoice=invoice)["amount"] == 0

    # the replayed log agrees on the accepted sum
    replayed = eng.replayed_state()
    accepted = sum(p.amount.amount
                   for p in replayed.stores["payments"].values()
                   if str(p.invoice) == invoice and p.state.value == "Accepted")
    assert accepted == 1425


def test_overpayment_rejected(eng):
    customer = new_customer(eng, loyalty=True)
    checker = new_employee(eng, name="payval", roles=["InvoiceValidator"])
    invoice = validated_invoice(eng, customer)  # total 1425

    first = eng.execute(customer, "record_payment", customer=customer,
                        invoice=invoice, amount=1000, method="Card")["payment"]
    eng.execute(checker, "validate_payment", validator=checker, payment=first)
    over = eng.execute(customer, "record_payment", customer=customer,
                       invoice=invoice, amount=500, method="Card")["payment"]
    result = eng.execute(checker, "validate_payment", validator=checker,
                         payment=over)
    assert result == {"verdict": "Rejected", "reasons": ["overpayment"]}
    # oracle: accepted sum must still be bounded by the total
    accepted = sum(p.amount.amount for p in eng.state.stores["payments"].values()
                   if str(p.invoice) == invoice and p.state.value == "Accepted")
    total = eng.query("invoice_total", invoice=invoice)["amount"]
    assert accepted == 1000 <= total
    assert eng.query("invoice_state", invoice=invoice) == "PartiallyPaid"

    with pytest.raises(DomainError) as exc:
        eng.execute(checker, "validate_payment", validator=checker, payment=over)
    assert exc.value.code == "AlreadyValidated"


def test_method_allowed_rule(eng):
    customer = new_customer(eng, loyalty=True)
    checker = new_employee(eng, name="payval", roles=["InvoiceValidator"])
    invoice = validated_invoice(eng, customer)
    cash = eng.execute(customer, "record_payment", customer=customer,
                       invoice=invoice, amount=100, method="Cash")["payment"]
    result = eng.execute(checker, "validate_payment", validator=checker,
                         payment=cash, rules=["method-allowed"])
    assert result == {"verdict": "Rejected", "reasons": ["method-allowed"]}


def test_invoice_balance_as_dispatched_command(eng):
    customer = new_customer(eng, loyalty=True)
    invoice = validated_invoice(eng, customer)
    result = eng.execute(customer, "invoice_balance", invoice=invoice)
    assert result["balance"] == {"amount": 1425, "currency": "USD"}
    assert eng.state.log[-1].deltas == []
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "invoice_balance", invoice="invoice:99")
    assert exc.value.code == "UnknownInvoice"


def test_invoice_balance_examples(eng):
    customer = new_customer(eng, loyalty=True)
    checker = new_employee(eng, name="payval", roles=["InvoiceValidator"])
    invoice = validated_invoice(eng, customer)  # total 1425
    assert eng.query("invoice_balance", invoice=invoice)["amount"] == 1425

    payment = eng.execute(customer, "record_payment", customer=customer,
                          invoice=invoice, amount=1000, method="Card")["payment"]
    eng.execute(checker, "validate_payment", validator=checker, payment=payment)
    assert eng.query("invoice_balance", invoice=invoice)["amount"] == 425


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=900), min_size=1, max_size=12))
def test_payment_sequences_conserve_balance(amounts):
    """Any accepted/rejected mix keeps accepted + balance == total, balance >= 0."""
    engine = fresh_engine(seed_stock=False)
    customer = new_customer(engine, loyalty=True)
    checker = new_employee(engine, name="payval", roles=["InvoiceValidator"])
    invoice = validated_invoice(engine, customer)
    total = engine.query("invoice_total", invoice=invoice)["amount"]

    accepted_oracle = 0
    for amount in amounts:
        state = engine.query("invoice_state", invoice=invoice)
        if state == "Paid":
            with pytest.raises(DomainError):
                engine.execute(customer, "record_payment", customer=customer,
                               invoice=invoice, amount=amount, method="Card")
            break
        payment = engine.execute(customer, "record_payment", customer=customer,
                                 invoice=invoice, amount=amount,
                                 method="Card")["payment"]
        result = engine.execute(checker, "validate_payment", validator=checker,
                                payment=payment)
        if accepted_oracle + amount <= total:
            assert result["verdict"] == "Accepted"
            accepted_oracle += amount
        else:
            assert result["verdict"] == "Rejected"
            assert result["reasons"] == ["overpayment"]
        balance = engine.query("invoice_balance", invoice=invoice)["amount"]
        assert balance >= 0
        assert accepted_oracle + balance == total
    assert engine.check_invariants().ok()
