"""`tools/code_lines.py`, the line count CI reports and the ROADMAP quotes."""
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run from its source, so no bytecode is written under tools/
TOOL = runpy.run_path(str(ROOT / "tools" / "code_lines.py"))
code_lines = TOOL["code_lines"]


def test_docstrings_comments_and_blanks_count_zero():
    source = ('"""Module docstring,\n'
              'over two lines."""\n'
              '\n'
              '# a comment\n'
              '    \n')
    assert code_lines(source) == 0


def test_docstring_inside_a_function_counts_zero():
    source = ('def f():\n'
              '    """What f does."""\n'
              '    # why\n'
              '\n'
              '    return 1  # trailing comment\n')
    assert code_lines(source) == 2


def test_a_call_split_over_three_lines_counts_three():
    source = ('total = add(\n'
              '    1,\n'
              '    2)\n')
    assert code_lines(source) == 3


def test_a_string_assigned_to_a_name_counts():
    assert code_lines('label = "case1"\n') == 1
    assert code_lines('text = """one\ntwo"""\n') == 2


def test_main_prints_modules_largest_first_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    assert TOOL["main"](["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "b 2\na 1\ntotal 3\n"
