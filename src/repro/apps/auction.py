"""Cooperative auction management on a replicated DHT (paper Section 1).

Bidders on different peers place bids on an item whose state is replicated in
the DHT.  Accepting a bid requires reading the *current* high bid — reading a
stale replica would let a lower bid overwrite a higher one.  UMS provides that
currency guarantee; the BRK baseline cannot (two concurrent bids can end up
with the same version number and an arbitrary winner).

The application talks to any :class:`repro.api.CurrencyService` — typically a
:class:`repro.api.Session` opened on a cluster.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

__all__ = ["Auction", "Bid", "BidRejected"]


class BidRejected(RuntimeError):
    """A bid was rejected (too low, auction closed, or stale state)."""


@dataclass(frozen=True)
class Bid:
    """One accepted bid."""

    bidder: str
    amount: float
    sequence: int

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Bid":
        return cls(bidder=payload["bidder"], amount=payload["amount"],
                   sequence=payload["sequence"])


class Auction:
    """A single-item English auction whose state lives in the replicated DHT."""

    def __init__(self, service, auction_id: str, *,
                 seller: str = "", reserve_price: float = 0.0,
                 minimum_increment: float = 1.0) -> None:
        if reserve_price < 0 or minimum_increment <= 0:
            raise ValueError("reserve_price must be >= 0 and minimum_increment > 0")
        self.service = service
        self.auction_id = auction_id
        self.seller = seller
        self.reserve_price = reserve_price
        self.minimum_increment = minimum_increment

    @property
    def key(self) -> str:
        """The DHT key under which the auction state is replicated."""
        return f"auction:{self.auction_id}"

    # ------------------------------------------------------------------ state
    def open(self) -> None:
        """Create (or reset) the auction state in the DHT."""
        self.service.insert(self.key, {"status": "open", "seller": self.seller,
                                   "reserve_price": self.reserve_price,
                                   "bids": []})

    def _state(self) -> Dict[str, Any]:
        result = self.service.retrieve(self.key)
        if not result.found:
            raise BidRejected(f"auction {self.auction_id!r} does not exist")
        if not result.is_current:
            raise BidRejected(
                f"auction {self.auction_id!r}: current state unavailable, refusing to act "
                "on a stale replica")
        return dict(result.data)

    def status(self) -> str:
        """``"open"`` or ``"closed"``."""
        return self._state()["status"]

    def bids(self) -> List[Bid]:
        """All accepted bids, in acceptance order."""
        return [Bid.from_dict(entry) for entry in self._state()["bids"]]

    def current_high_bid(self) -> Optional[Bid]:
        """The currently winning bid, if any."""
        bids = self.bids()
        return max(bids, key=lambda bid: bid.amount) if bids else None

    # ------------------------------------------------------------------- bids
    def place_bid(self, bidder: str, amount: float) -> Bid:
        """Place a bid; returns the accepted bid or raises :class:`BidRejected`."""
        state = self._state()
        if state["status"] != "open":
            raise BidRejected(f"auction {self.auction_id!r} is closed")
        bids = [Bid.from_dict(entry) for entry in state["bids"]]
        high = max((bid.amount for bid in bids), default=state["reserve_price"])
        minimum_acceptable = high + (self.minimum_increment if bids else 0.0)
        if amount < minimum_acceptable:
            raise BidRejected(
                f"bid of {amount} is below the minimum acceptable amount {minimum_acceptable}")
        accepted = Bid(bidder=bidder, amount=amount, sequence=len(bids))
        state["bids"] = [bid.to_dict() for bid in bids] + [accepted.to_dict()]
        self.service.insert(self.key, state)
        return accepted

    def close(self) -> Optional[Bid]:
        """Close the auction and return the winning bid (if any)."""
        state = self._state()
        state["status"] = "closed"
        self.service.insert(self.key, state)
        bids = [Bid.from_dict(entry) for entry in state["bids"]]
        return max(bids, key=lambda bid: bid.amount) if bids else None
