"""Exact local epsilon factors for rank-1 characters of F_q((pi)).

Subpackages by feature: gf (finite field towers), coeff (mod-ell coefficient
fields with fixed roots of unity), localfield (truncated Laurent series,
1-forms, residues), chars (rank-1 characters and conductors), epsilon (local
epsilon engines), curve (global sheaf data on P^1, L-polynomials, the product
formula and transfer constants of covers), twisted (multiplier twisted finite
group representations, induction and transfer), cli (JSON in, JSON out
command line front end).
"""

__version__ = "0.1.0"
