"""tools/gen_api_docs.py renders the same docs/API.md on every run.

A function-valued default (``BlackBoxPar``'s ``source_factory``) used to
print as ``<function ... at 0x7f...>``, so every regeneration changed
the file; the generator now drops the address.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("gen_api_docs", TOOLS / "gen_api_docs.py")
gen_api_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen_api_docs)


def test_rendered_docs_carry_no_memory_address():
    text = gen_api_docs.render()
    assert " at 0x" not in text
    # the default is still named, only its address is gone
    assert "<function det_green_source_factory>" in text


def test_signature_of_strips_addresses_only():
    def f(x, g=print, h=lambda: 0, n=3):
        return x

    sig = gen_api_docs.signature_of(f)
    assert " at 0x" not in sig
    assert "g=<built-in function print>" in sig and "n=3" in sig
