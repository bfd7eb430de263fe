"""Toy QKD simulator verifying an algorithmic information-disturbance trade-off.

Alice sends an N-bit message encoded in the Z or X basis through an
eavesdropping channel splitting the system between Bob and Eve.  The
package builds a computable proxy for reconstruction complexity out of
prefix-free decoder catalogues and verifies, for a library of attacks,
that the number of cheaply reconstructible messages on the two
conjugate sides obeys the counting bound implied by the Landau-Pollak
uncertainty relation.
"""
