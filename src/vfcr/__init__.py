"""Feedback-with-carry registers over F2 and F2^n with exact 2-adic analysis."""
