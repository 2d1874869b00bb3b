"""Intent model, canonical serialization, ascertainment, and ledger state."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from setoff import (
    Acceptance,
    AcceptanceKind,
    AmountError,
    IntentError,
    KeyRegistry,
    Ledger,
    Obligation,
    SettlementFlow,
    SettlementRecord,
    Tender,
    TenderKind,
    Transfer,
    ascertain,
    bound_party,
    verify_ascertainment,
)
from setoff.engine import canonical_dumps
from setoff.model import (
    MAX_AMOUNT,
    _token,
    as_amount,
    as_quantity,
    canonical_serialize,
    flow_from_obj,
    flow_to_obj,
    intent_from_obj,
    intent_to_obj,
    sub_amount,
)

from support import key_of, registry_for


# --- amounts -----------------------------------------------------------------


def test_as_amount_accepts_range() -> None:
    assert as_amount(0) == 0
    assert as_amount(MAX_AMOUNT) == MAX_AMOUNT


@pytest.mark.parametrize("bad", [True, False, 1.5, "3", None, -1, MAX_AMOUNT + 1])
def test_as_amount_rejects(bad: object) -> None:
    with pytest.raises(AmountError):
        as_amount(bad)


def test_as_quantity_has_no_upper_bound() -> None:
    assert as_quantity(0) == 0
    assert as_quantity(2 * MAX_AMOUNT) == 2 * MAX_AMOUNT


@pytest.mark.parametrize("bad", [True, False, 1.5, "3", None, -1])
def test_as_quantity_rejects(bad: object) -> None:
    with pytest.raises(AmountError):
        as_quantity(bad)


def test_settlement_artifacts_carry_amounts_above_the_intent_bound() -> None:
    big = MAX_AMOUNT + 1
    rec = SettlementRecord(edge_ref="t", party="A", amount=big, currency_amount=(big, "X"))
    assert rec.amount == big
    assert Transfer(payer="A", payee="B", asset="X", amount=big).amount == big
    with pytest.raises(AmountError):
        SettlementRecord(edge_ref="t", party="A", amount=-1)


def test_sub_amount_underflow() -> None:
    assert sub_amount(5, 5) == 0
    with pytest.raises(AmountError):
        sub_amount(4, 5)


# --- intent validation ---------------------------------------------------------


def test_obligation_rejects_zero_and_self_edge() -> None:
    with pytest.raises(IntentError):
        Obligation(id="x", debtor="a", creditor="b", amount=0, unit="UOA")
    with pytest.raises(IntentError):
        Obligation(id="x", debtor="a", creditor="a", amount=1, unit="UOA")


def test_obligation_rejects_bad_date() -> None:
    with pytest.raises(IntentError):
        Obligation(
            id="x", debtor="a", creditor="b", amount=1, unit="UOA", due_date="soon"
        )


def test_acceptance_kind_must_be_enum() -> None:
    with pytest.raises(IntentError):
        Acceptance(id="x", origin="a", target="b", kind="deposit", currency="UOA")


def test_repayment_acceptance_constraints() -> None:
    with pytest.raises(IntentError):
        Acceptance(
            id="x", origin="a", target="b", kind=AcceptanceKind.REPAYMENT,
            currency="UOA", limit=None,
        )
    with pytest.raises(IntentError):
        Acceptance(
            id="x", origin="a", target="a", kind=AcceptanceKind.REPAYMENT,
            currency="UOA", limit=5,
        )


def test_tender_price_must_be_positive_fraction() -> None:
    with pytest.raises(IntentError):
        Tender(
            id="x", sender="a", source="s", kind=TenderKind.ASSIGNMENT,
            max_amount=1, price=1.5,
        )
    with pytest.raises(IntentError):
        Tender(
            id="x", sender="a", source="s", kind=TenderKind.ASSIGNMENT,
            max_amount=1, price=Fraction(0),
        )


def test_bound_party_per_intent_type() -> None:
    ob = Obligation(id="o", debtor="d", creditor="c", amount=1, unit="UOA")
    acc = Acceptance(id="a", origin="p", target="s", kind=AcceptanceKind.DEPOSIT, currency="UOA")
    t = Tender(id="t", sender="q", source="s", kind=TenderKind.ASSIGNMENT, max_amount=1)
    assert bound_party(ob) == "d"
    assert bound_party(acc) == "p"
    assert bound_party(t) == "q"


# --- canonical serialization ---------------------------------------------------

intent_strategy = st.one_of(
    st.builds(
        Obligation,
        id=st.uuids().map(str),
        debtor=st.just("a"),
        creditor=st.just("b"),
        amount=st.integers(min_value=1, max_value=10**9),
        unit=st.sampled_from(["UOA", "USDX"]),
        due_date=st.one_of(st.none(), st.just("2026-09-30")),
    ),
    st.builds(
        Acceptance,
        id=st.uuids().map(str),
        origin=st.just("a"),
        target=st.just("s"),
        kind=st.just(AcceptanceKind.DEPOSIT),
        currency=st.sampled_from(["UOA", "USDX"]),
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=10**9)),
    ),
    st.builds(
        Tender,
        id=st.uuids().map(str),
        sender=st.just("a"),
        source=st.just("s"),
        kind=st.sampled_from(list(TenderKind)),
        max_amount=st.integers(min_value=0, max_value=10**9),
        price=st.one_of(
            st.none(),
            st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000)),
        ),
    ),
)


@given(intent_strategy)
def test_intent_obj_round_trip(intent) -> None:
    assert intent_from_obj(intent_to_obj(intent)) == intent


@given(intent_strategy)
def test_canonical_serialize_ignores_token(intent) -> None:
    reg = KeyRegistry({bound_party(intent): b"k"})
    signed = ascertain(intent, reg)
    assert canonical_serialize(signed) == canonical_serialize(intent)


# The signing format, pinned: the canonical bytes and the HMAC-SHA256 token under
# ``key_of`` of the bound party. Every stored token depends on them.
PINNED_SIGNING = [
    (
        Obligation(id="ob:due", debtor="acme", creditor="bolt", amount=1250, unit="UOA",
                   due_date="2025-03-31"),
        b'{"type":"obligation","id":"ob:due","debtor":"acme","creditor":"bolt",'
        b'"amount":1250,"unit":"UOA","due_date":"2025-03-31"}',
        "252d20d9aaba3f282fe0148229aeddd65967d38055925c41ac8ed33286e97cf0",
    ),
    (
        Acceptance(id="acc:rep", origin="bank", target="acme", kind=AcceptanceKind.REPAYMENT,
                   currency="UOA", limit=5000, repayment_due="2025-06-30"),
        b'{"type":"acceptance","id":"acc:rep","origin":"bank","target":"acme",'
        b'"kind":"repayment","limit":5000,"currency":"UOA","repayment_due":"2025-06-30"}',
        "2f3575432e7f80faf7d5204571a9c0e82371480cd889fe9ce1f0462b125e5ff6",
    ),
    (
        Tender(id="tender:eurx", sender="acme", source="eurx_issuer",
               kind=TenderKind.ASSIGNMENT, max_amount=300, price=Fraction(11, 10)),
        b'{"type":"tender","id":"tender:eurx","sender":"acme","source":"eurx_issuer",'
        b'"kind":"assignment","max_amount":300,"price":"11/10"}',
        "edc3e5916c5ec5a190008c30a10c76ecafabe2420542fd86f6d9250d21a55f28",
    ),
]


@pytest.mark.parametrize("intent, canonical, token", PINNED_SIGNING)
def test_signing_format_is_pinned(intent, canonical: bytes, token: str) -> None:
    party = bound_party(intent)
    assert canonical_serialize(intent) == canonical
    assert _token(key_of(party), intent) == token
    signed = ascertain(intent, registry_for(party))
    assert signed.ascertainment == token
    assert verify_ascertainment(signed, registry_for(party))


def test_canonical_serialize_distinguishes_amounts() -> None:
    a = Obligation(id="o", debtor="d", creditor="c", amount=7, unit="UOA")
    b = Obligation(id="o", debtor="d", creditor="c", amount=8, unit="UOA")
    assert canonical_serialize(a) != canonical_serialize(b)


def test_fractional_price_survives_round_trip() -> None:
    t = Tender(
        id="t", sender="a", source="s", kind=TenderKind.OVERDRAFT,
        max_amount=10, price=Fraction(7, 2),
    )
    obj = intent_to_obj(t)
    assert obj["price"] == "7/2"
    assert intent_from_obj(obj).price == Fraction(7, 2)


def test_intent_from_obj_errors() -> None:
    with pytest.raises(IntentError):
        intent_from_obj({"type": "obligation", "id": "x"})  # missing fields
    with pytest.raises(IntentError):
        intent_from_obj({"type": "promise", "id": "x"})
    with pytest.raises(IntentError):
        intent_from_obj("not an object")


# --- ascertainment -------------------------------------------------------------


def test_ascertain_and_verify() -> None:
    reg = registry_for("d")
    ob = Obligation(id="o", debtor="d", creditor="c", amount=5, unit="UOA")
    signed = ascertain(ob, reg)
    assert signed.ascertainment is not None
    assert verify_ascertainment(signed, reg)
    assert not verify_ascertainment(ob, reg)  # unsigned


def test_tampered_intent_fails_verification() -> None:
    reg = registry_for("d")
    signed = ascertain(
        Obligation(id="o", debtor="d", creditor="c", amount=5, unit="UOA"), reg
    )
    tampered = Obligation(
        id="o", debtor="d", creditor="c", amount=6, unit="UOA",
        ascertainment=signed.ascertainment,
    )
    assert not verify_ascertainment(tampered, reg)


def test_wrong_key_fails_verification() -> None:
    ob = Obligation(id="o", debtor="d", creditor="c", amount=5, unit="UOA")
    signed = ascertain(ob, registry_for("d"))
    other = KeyRegistry({"d": key_of("someone-else")})
    assert not verify_ascertainment(signed, other)
    assert not verify_ascertainment(signed, KeyRegistry())  # unknown party


def test_ascertain_requires_key() -> None:
    ob = Obligation(id="o", debtor="d", creditor="c", amount=5, unit="UOA")
    with pytest.raises(IntentError):
        ascertain(ob, KeyRegistry())


# --- ledger ----------------------------------------------------------------


def test_ledger_balance_ops() -> None:
    led = Ledger()
    assert led.balance("a", "UOA") == 0
    led.set_balance("a", "UOA", 10)
    assert led.adjust_balance("a", "UOA", -4) == 6
    assert led.balance("a", "UOA") == 6
    with pytest.raises(AmountError):
        led.set_balance("a", "UOA", "lots")


def test_ledger_copy_is_independent() -> None:
    led = Ledger()
    led.set_balance("a", "UOA", 10)
    led.open_obligations["o"] = Obligation(
        id="o", debtor="d", creditor="c", amount=5, unit="UOA"
    )
    dup = led.copy()
    dup.adjust_balance("a", "UOA", -10)
    del dup.open_obligations["o"]
    assert led.balance("a", "UOA") == 10
    assert "o" in led.open_obligations


def test_ledger_to_obj_drops_zero_balances() -> None:
    led = Ledger()
    led.set_balance("a", "UOA", 0)
    led.set_balance("b", "UOA", 3)
    obj = led.to_obj()
    assert obj["balances"] == {"b": {"UOA": 3}}


def test_ledger_canonical_bytes_insertion_order_independent() -> None:
    one = Ledger()
    one.set_balance("a", "UOA", 1)
    one.set_balance("b", "USDX", 2)
    two = Ledger()
    two.set_balance("b", "USDX", 2)
    two.set_balance("a", "UOA", 1)
    assert canonical_dumps(one.to_obj()) == canonical_dumps(two.to_obj())


def test_ledger_round_trip_and_obligation_check() -> None:
    led = Ledger()
    led.set_balance("a", "UOA", 7)
    led.open_obligations["o"] = Obligation(
        id="o", debtor="d", creditor="c", amount=5, unit="UOA"
    )
    again = Ledger.from_obj(led.to_obj())
    assert canonical_dumps(again.to_obj()) == canonical_dumps(led.to_obj())
    bad = led.to_obj()
    bad["open_obligations"]["o"] = {
        "type": "tender", "id": "o", "sender": "a", "source": "s",
        "kind": "assignment", "max_amount": 1, "price": None,
    }
    with pytest.raises(IntentError):
        Ledger.from_obj(bad)


# --- flow serialization --------------------------------------------------------


def test_flow_obj_round_trip() -> None:
    flow = SettlementFlow(
        epoch_id=3,
        records=(
            SettlementRecord(edge_ref="ob1", party="a", amount=5),
            SettlementRecord(
                edge_ref="t1", party="s", amount=10, currency_amount=(5, "USDX")
            ),
        ),
        transfers=(Transfer(payer="a", payee="b", asset="USDX", amount=5),),
    )
    again = flow_from_obj(flow_to_obj(flow))
    assert again == flow
    with pytest.raises(IntentError):
        flow_from_obj({"records": []})  # no epoch_id
