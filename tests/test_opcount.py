"""The opcode counter of ``tests/opcount.py`` gives one count per pass."""

from opcount import count_opcodes


def test_opcode_count_is_the_same_on_every_pass():
    argvs = [["hh", "--spec", "taft:2", "--max-degree", "4"]]
    first = count_opcodes(argvs)
    assert first > 0
    assert count_opcodes(argvs) == first
