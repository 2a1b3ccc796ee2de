"""tools/code_lines.py: code lines of files and of a directory's files."""

import importlib.util
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "code_lines", os.path.join(_ROOT, "tools", "code_lines.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_directory_counts_its_python_files(tool, tmp_path, capsys):
    (tmp_path / "b.py").write_text('"""Doc."""\n\nx = 1  # one\n')
    (tmp_path / "a.py").write_text("def f():\n    '''Doc.'''\n    return 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    files = [str(tmp_path / name) for name in ("a.py", "b.py")]
    assert tool.main(files) == 0
    listed = capsys.readouterr().out
    assert listed.splitlines()[-1] == "     3 code lines in all"
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == listed


def test_no_path_prints_the_usage(tool, capsys):
    assert tool.main([]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Usage" in err


@pytest.mark.parametrize("name, error", [("missing.py", "FileNotFoundError"),
                                         ("README.md", "SyntaxError")])
def test_a_bad_path_is_named_on_one_line(tool, tmp_path, capsys, name,
                                         error):
    # a file that does not exist, or is not Python, stops the count with
    # one line on stderr that names it, as the usage does with no path
    (tmp_path / "README.md").write_text("# Title\n\nIt's prose.\n")
    path = str(tmp_path / name)
    assert tool.main([path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"{path}: {error}: ")
