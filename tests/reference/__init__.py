"""Test-only reference implementations; nothing under `src/` imports them."""
