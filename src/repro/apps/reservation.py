"""Reservation management on a replicated DHT (paper Section 1).

A reservation book (seats of a venue, rooms of a hotel, ...) is stored under
one key.  Reserving requires knowing the *current* occupancy: acting on a
stale replica double-books seats.  The implementation follows the same
read-modify-write pattern as the other applications, refusing to mutate when
no current replica is available.

The application talks to any :class:`repro.api.CurrencyService` — typically a
:class:`repro.api.Session` opened on a cluster.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["ReservationBook", "ReservationError", "SeatAlreadyTaken"]


class ReservationError(RuntimeError):
    """Base error for reservation failures."""


class SeatAlreadyTaken(ReservationError):
    """The requested seat is already reserved by someone else."""

    def __init__(self, seat: str, holder: str):
        super().__init__(f"seat {seat!r} is already reserved by {holder!r}")
        self.seat = seat
        self.holder = holder


class ReservationBook:
    """Seat reservations for one resource, replicated in the DHT."""

    def __init__(self, service, resource_id: str, *,
                 seats: Optional[List[str]] = None, capacity: Optional[int] = None) -> None:
        if seats is None:
            if capacity is None or capacity < 1:
                raise ValueError("provide either an explicit seat list or a capacity >= 1")
            seats = [f"seat-{index}" for index in range(capacity)]
        if len(set(seats)) != len(seats):
            raise ValueError("seat identifiers must be unique")
        self.service = service
        self.resource_id = resource_id
        self.seats = list(seats)

    @property
    def key(self) -> str:
        """The DHT key under which the reservation book is replicated."""
        return f"reservation:{self.resource_id}"

    # ------------------------------------------------------------------ state
    def initialize(self) -> None:
        """Create an empty reservation book in the DHT."""
        self.service.insert(self.key, {"seats": self.seats, "reservations": {}})

    def _state(self) -> Dict[str, Any]:
        result = self.service.retrieve(self.key)
        if not result.found:
            raise ReservationError(
                f"reservation book {self.resource_id!r} has not been initialised")
        if not result.is_current:
            raise ReservationError(
                f"reservation book {self.resource_id!r}: current state unavailable")
        return dict(result.data)

    def reservations(self) -> Dict[str, str]:
        """Mapping seat -> holder for all reserved seats."""
        return dict(self._state()["reservations"])

    def available_seats(self) -> List[str]:
        """Seats that are not currently reserved, in seat order."""
        taken = set(self.reservations())
        return [seat for seat in self.seats if seat not in taken]

    def occupancy(self) -> float:
        """Fraction of seats currently reserved."""
        return len(self.reservations()) / len(self.seats)

    def holder_of(self, seat: str) -> Optional[str]:
        """Who holds ``seat``, or ``None`` when it is free."""
        return self.reservations().get(seat)

    # ------------------------------------------------------------------ writes
    def reserve(self, customer: str, seat: Optional[str] = None) -> str:
        """Reserve ``seat`` (or the first available one) for ``customer``.

        Returns the reserved seat identifier; raises :class:`SeatAlreadyTaken`
        when the requested seat is occupied and :class:`ReservationError` when
        the venue is full.
        """
        state = self._state()
        reservations: Dict[str, str] = dict(state["reservations"])
        if seat is None:
            free = [candidate for candidate in self.seats if candidate not in reservations]
            if not free:
                raise ReservationError(f"no seats left in {self.resource_id!r}")
            seat = free[0]
        if seat not in self.seats:
            raise ReservationError(f"unknown seat {seat!r}")
        if seat in reservations:
            raise SeatAlreadyTaken(seat, reservations[seat])
        reservations[seat] = customer
        state["reservations"] = reservations
        self.service.insert(self.key, state)
        return seat

    def cancel(self, seat: str) -> bool:
        """Cancel the reservation of ``seat``; returns ``True`` when it was reserved."""
        state = self._state()
        reservations: Dict[str, str] = dict(state["reservations"])
        if seat not in reservations:
            return False
        del reservations[seat]
        state["reservations"] = reservations
        self.service.insert(self.key, state)
        return True
