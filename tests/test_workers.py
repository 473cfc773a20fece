"""The one frame format and the one fork/stop lifecycle of shardbench.workers."""

import ast
import marshal
import os
import pickle
import select
from pathlib import Path

import pytest

from shardbench import workers
from shardbench.workers import _forked, _receive, _send

PACKAGE = Path(workers.__file__).resolve().parent
LOST = "the child went away"


@pytest.fixture
def pipe():
    """(reader, writer) file objects over an in-process os.pipe()."""
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader, open(write_end, "wb") as writer:
        yield reader, writer


@pytest.mark.parametrize("value", [
    0, -1, "", "a\nb", b"\x00" * 5, (["x", "y"], (3, (1, 2), None)), [[([0, 5], [2, 1])]],
])
def test_a_frame_round_trips(pipe, value):
    reader, writer = pipe
    _send(writer, value)
    _send(writer, "next")
    assert _receive(reader, LOST) == value
    assert _receive(reader, LOST) == "next"


def test_an_error_frame_raises_the_exception_it_holds(pipe):
    reader, writer = pipe
    payload = pickle.dumps(OSError(28, "No space left on device", "out.txt"))
    writer.write((-len(payload)).to_bytes(8, "little", signed=True) + payload)
    writer.flush()
    with pytest.raises(OSError) as raised:
        _receive(reader, LOST)
    assert str(raised.value) == "[Errno 28] No space left on device: 'out.txt'"


@pytest.mark.parametrize("cut", [0, 1, 7, 8, 9])
@pytest.mark.parametrize("error", [False, True])
def test_a_frame_cut_short_raises_child_process_error(pipe, cut, error):
    reader, writer = pipe
    payload = pickle.dumps(ValueError("x")) if error else marshal.dumps("a value")
    size = -len(payload) if error else len(payload)
    frame = size.to_bytes(8, "little", signed=True) + payload
    writer.write(frame[:cut] if cut < 9 else frame[:-1])  # a short header, or a short payload
    writer.close()
    with pytest.raises(ChildProcessError, match=f"^{LOST}$"):
        _receive(reader, LOST)


def _frames_from(work, received: list) -> None:
    """Receive what one forked child running `work` sends, into `received`, until it fails."""
    with _forked([work]) as (child,):
        assert select.select([child], [], [], 60)[0], "the child neither sent nor exited"
        while True:
            received.append(_receive(child, LOST))


def test_a_forked_child_sends_frames_and_then_its_exception_as_itself():
    sent = [1, list(range(100_000)), "last"]  # the list's frame is larger than a pipe holds
    received = []

    def work(out):
        for value in sent:
            _send(out, value)
        raise KeyError("gone")

    with pytest.raises(KeyError, match="gone"):
        _frames_from(work, received)
    assert received == sent


class _Unloadable(Exception):
    """Pickles, but does not unpickle: its args do not fit its __init__."""

    def __init__(self, first, second):
        super().__init__(first)


@pytest.mark.parametrize("error", [
    ValueError("holds a lambda", lambda: None),  # pickle.dumps fails
    _Unloadable("a", "b"),  # pickle.loads fails
])
def test_a_child_whose_exception_pickle_cannot_carry_is_lost_not_hung(error):
    def work(out):
        _send(out, "before")
        raise error

    received = []
    with pytest.raises(ChildProcessError, match=f"^{LOST}$"):
        _frames_from(work, received)
    assert received == ["before"]


def test_every_child_is_killed_and_reaped_however_the_block_ends():
    def forever(out):
        while True:
            _send(out, "more")

    with pytest.raises(RuntimeError):
        with _forked([forever, forever, forever]) as pipes:
            assert [_receive(pipe, LOST) for pipe in pipes] == ["more"] * 3
            raise RuntimeError
    assert all(pipe.closed for pipe in pipes)
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def _names(tree: ast.AST) -> set[str]:
    """The dotted os.* attributes and the modules a module's code names or imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_the_workers_module_touches_the_wire(module):
    names = _names(ast.parse((PACKAGE / module).read_text(encoding="utf-8")))
    wire = {"os.fork", "os.pipe", "os.kill", "marshal"}
    if module == "workers.py":
        assert wire <= names
    else:
        assert not names & wire
        if module in ("scan.py", "corpus.py"):
            assert "pickle" not in names
