import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ppsim import core, dsl, presets
from ppsim.errors import CompileError, InputError, ParseError

PREP_PROGRAM = "block { sel 3 4 x 127.13 ; sel 2 4 x 186.01 }\ncrush\n"
# the longest integer Python reads from text, and how a message quotes it
LONG = "9" * 4300
LONG_CUT = f"{'9' * 32}... (4300 characters)"


def random_program(rng):
    statements = []
    for _ in range(int(rng.integers(1, 6))):
        kind = rng.choice(["block", "hard", "crush", "sel"])
        if kind == "block":
            count = int(rng.integers(1, 4))
            pairs = [(3, 4), (4, 2), (1, 3), (1, 2)][:count]
            pulses = tuple(
                dsl.SelPulse(m, k, str(rng.choice(list("xyz"))), round(float(rng.uniform(0, 360)), 4))
                for m, k in pairs
            )
            statements.append(dsl.Block(pulses))
        elif kind == "sel":
            statements.append(
                dsl.Block((dsl.SelPulse(3, 4, "x", round(float(rng.uniform(0, 360)), 4)),))
            )
        elif kind == "hard":
            spin = None if rng.random() < 0.5 else int(rng.integers(1, 3))
            statements.append(
                dsl.HardPulse(spin, str(rng.choice(list("xyz"))), round(float(rng.uniform(0, 360)), 4))
            )
        else:
            statements.append(dsl.Crush(str(rng.choice(["all_off_diagonal", "coherence_order"]))))
    return dsl.PulseProgram(tuple(statements))


axes = st.sampled_from("xyz")
finite_angles = st.floats(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# parsing

def test_parse_preparation_program():
    program = dsl.parse(PREP_PROGRAM)
    assert len(program.statements) == 2
    block, crush_stmt = program.statements
    assert block == dsl.Block(
        (dsl.SelPulse(3, 4, "x", 127.13), dsl.SelPulse(2, 4, "x", 186.01))
    )
    assert crush_stmt == dsl.Crush("all_off_diagonal")
    assert program.lines == (1, 2)


def test_parse_empty_and_comments():
    assert dsl.parse("").statements == ()
    assert dsl.parse("# nothing here\n   \n").statements == ()
    program = dsl.parse("hard all x 90 # flip everything\n")
    assert program.statements == (dsl.HardPulse(None, "x", 90.0),)


def test_parse_is_whitespace_insensitive():
    dense = dsl.parse("block{sel 3 4 x 10;sel 4 2 x 20}crush order")
    spread = dsl.parse("block {\n  sel 3 4 x 10 ;\n  sel 4 2 x 20\n}\ncrush order\n")
    assert dense == spread


def test_parse_bare_sel_is_a_one_pulse_block():
    program = dsl.parse("sel 3 4 y 45.5")
    assert program.statements == (dsl.Block((dsl.SelPulse(3, 4, "y", 45.5),)),)


def test_parse_crush_variants():
    assert dsl.parse("crush").statements[0].mode == "all_off_diagonal"
    assert dsl.parse("crush ideal").statements[0].mode == "all_off_diagonal"
    assert dsl.parse("crush order").statements[0].mode == "coherence_order"
    # a following statement must not be eaten as the crush argument
    program = dsl.parse("crush\nhard 1 x 90")
    assert len(program.statements) == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("sel 3 3 x 10", "degenerate transition"),
        ("block { sel 3 4 x 1 ; sel 4 3 y 2 }", "appears twice"),
        ("pulse 1 2 x 3", "unknown keyword"),
        ("sel 3 4 x ninety", "malformed angle"),
        ("sel 3 4 x inf", "malformed angle"),
        ("sel 3 4 q 10", "axis must be"),
        ("sel three 4 x 10", "expected a level number"),
        ("block { sel 3 4 x 10", "unexpected end"),
        ("hard", "unexpected end"),
        ("block sel 3 4 x 10 }", "expected '{'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        dsl.parse(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("hard", "unexpected end of program in hard pulse", (None, None)),
        ("hard all", "unexpected end of program, expected a token", (None, None)),
        ("block", "unexpected end of program, expected {", (None, None)),
        ("block sel", "line 1, col 7: expected '{', got 'sel'", (1, 7)),
        ("block { sel 3 4 x 1 ; }", "line 1, col 23: expected 'sel', got '}'", (1, 23)),
        ("sel 3 3 x 10", "line 1, col 1: degenerate transition (3, 3)", (1, 1)),
        (
            "block { sel 3 4 x 1 ; sel 4 3 y 2 }",
            "line 1, col 1: transition (4, 3) appears twice in one block",
            (1, 1),
        ),
        ("sel three 4 x 1", "line 1, col 5: expected a level number, got 'three'", (1, 5)),
        ("hard two x 1", "line 1, col 6: expected a spin number or 'all', got 'two'", (1, 6)),
        ("sel 3 4 q 1", "line 1, col 9: axis must be x, y or z, got 'q'", (1, 9)),
        ("sel 3 4 x inf", "line 1, col 11: malformed angle 'inf'", (1, 11)),
        ("crush\nfoo", "line 2, col 1: unknown keyword 'foo'", (2, 1)),
        # a token is quoted whole up to 32 characters, and cut there past that
        pytest.param(
            "x" * 32, f"line 1, col 1: unknown keyword '{'x' * 32}'", (1, 1), id="32-letter keyword"
        ),
        pytest.param(
            "x" * 33, f"line 1, col 1: unknown keyword '{'x' * 32}'... (33 characters)", (1, 1),
            id="33-letter keyword",
        ),
        pytest.param(
            f"sel {'9' * 5000} 2 x 1",
            f"line 1, col 5: expected a level number, got '{'9' * 32}'... (5000 characters)",
            (1, 5),
            id="5000-digit level",
        ),
        # a level that parses, at Python's 4300-digit limit, is cut the same way
        pytest.param(
            f"sel {LONG} {LONG} x 1",
            f"line 1, col 1: degenerate transition ({LONG_CUT}, {LONG_CUT})",
            (1, 1),
            id="degenerate 4300-digit levels",
        ),
        pytest.param(
            f"block {{ sel 1 {LONG} x 1 ; sel {LONG} 1 y 2 }}",
            f"line 1, col 1: transition ({LONG_CUT}, 1) appears twice in one block",
            (1, 1),
            id="repeated 4300-digit transition",
        ),
    ],
)
def test_parse_error_messages_verbatim(text, message, position):
    with pytest.raises(ParseError) as err:
        dsl.parse(text)
    assert str(err.value) == message
    assert (err.value.line, err.value.col) == position


def test_compile_error_message_verbatim():
    cases = (
        ("hard 3 x 90", "statement 1 (line 1): spin index 3 out of range 1..2"),
        ("sel 1 5 x 1", "statement 1 (line 1): level 5 out of range 1..4"),
        # a level or spin that parses, at Python's 4300-digit limit, is cut as a token is
        (f"sel 1 {LONG} x 1", f"statement 1 (line 1): level {LONG_CUT} out of range 1..4"),
        (f"hard {LONG} x 90", f"statement 1 (line 1): spin index {LONG_CUT} out of range 1..2"),
    )
    for text, message in cases:
        program = dsl.parse(text)
        with pytest.raises(CompileError) as err:
            dsl.compile(program, presets.get_preset("chloroform"))
        assert str(err.value) == message


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        dsl.parse("hard all x 90\nsel 3 3 x 10\n")
    assert err.value.line == 2


# ---------------------------------------------------------------------------
# pretty printing

def test_pretty_round_trip_hand_program():
    program = dsl.parse(PREP_PROGRAM + "hard all y 90\ncrush order\n")
    assert dsl.parse(dsl.pretty(program)) == program


@st.composite
def any_block(draw):
    # parse rejects a pulse on one level and a line twice in one block, nothing else
    distinct = st.tuples(st.integers(), st.integers()).filter(lambda mk: mk[0] != mk[1])
    pairs = draw(st.lists(distinct, min_size=1, max_size=4, unique_by=frozenset))
    return dsl.Block(tuple(dsl.SelPulse(m, k, draw(axes), draw(finite_angles)) for m, k in pairs))


any_statements = st.one_of(
    any_block(),
    st.builds(dsl.HardPulse, st.none() | st.integers(), axes, finite_angles),
    st.builds(dsl.Crush, st.sampled_from(core.CRUSH_MODES)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(any_statements, max_size=6))
def test_pretty_round_trip_generated_programs(stmts):
    # any finite angle (-0.0, subnormals, beyond 1e16), level and spin
    program = dsl.PulseProgram(tuple(stmts))
    parsed = dsl.parse(dsl.pretty(program))
    assert parsed == program
    # repr also tells -0.0 from 0.0, which == does not
    assert repr(parsed.statements) == repr(program.statements)


# every line break str.splitlines honours ("\r\n" is one), and blanks that break no line
LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
BLANKS = (" ", "\t", "\u00a0", "\u3000")
KEYWORDS = ("block", "sel", "hard", "crush", "ideal", "order")
comment_text = st.text(st.characters(exclude_categories=("Cs",),
                                     exclude_characters="".join(LINE_BREAKS)))
separator_parts = st.lists(
    st.sampled_from(BLANKS + LINE_BREAKS)
    | st.builds(lambda text, end: "#" + text + end, comment_text, st.sampled_from(LINE_BREAKS)),
    min_size=1, max_size=4,
)
unknown_words = st.text(st.characters(exclude_categories=("Cs",)), min_size=1).filter(
    lambda w: w.split() == [w] and not set(w) & set("{};#") and w not in KEYWORDS
)


@settings(max_examples=100, deadline=None)
@given(st.lists(any_statements, max_size=4), st.data(), unknown_words)
def test_parse_positions_under_any_layout(stmts, data, word):
    program = dsl.PulseProgram(tuple(stmts))
    tokens = dsl.pretty(program).split()
    text, line, col = "", 1, 1
    for i in range(len(tokens) + 1):  # a separator before each token and before word
        for part in data.draw(separator_parts):
            if part[-1] not in "".join(LINE_BREAKS):
                col += len(part)
            elif not (part == "\n" and text.endswith("\r")):  # "\r" then "\n" is one break
                line, col = line + 1, 1
            text += part
        if i < len(tokens):
            text += tokens[i]
            col += len(tokens[i])
    parsed = dsl.parse(text)
    assert parsed == program and repr(parsed.statements) == repr(program.statements)
    with pytest.raises(ParseError) as err:
        dsl.parse(text + word)
    assert (err.value.line, err.value.col) == (line, col)
    assert f"unknown keyword {word!r}" in str(err.value)


# ---------------------------------------------------------------------------
# compilation

def test_compile_preparation_program():
    system = presets.get_preset("chloroform")
    seq = dsl.compile(dsl.parse(PREP_PROGRAM), system)
    assert len(seq.events) == 2
    U, crush_stmt = seq.events
    assert crush_stmt == dsl.Crush("all_off_diagonal")
    np.testing.assert_allclose(U @ U.conj().T, np.eye(4), atol=1e-12)


def test_compile_hard_pulse_is_kron_of_rotations():
    for preset in ("homonuclear-2", "hetero-3"):
        system = presets.get_preset(preset)
        n = system.n_spins
        for axis in "xyz":
            for angle in (90.0, -37.5):
                # exp(-i a sigma/2) in closed form, one factor per spin
                a = np.radians(angle)
                single = np.cos(a / 2) * np.eye(2) - 1j * np.sin(a / 2) * core.PAULI[axis]
                seq = dsl.compile(dsl.parse(f"hard all {axis} {angle}"), system)
                want = functools.reduce(np.kron, [single] * n)
                np.testing.assert_allclose(seq.events[0], want, atol=1e-12)
                for spin in range(1, n + 1):
                    seq = dsl.compile(dsl.parse(f"hard {spin} {axis} {angle}"), system)
                    factors = [single if i == spin else np.eye(2) for i in range(1, n + 1)]
                    want = functools.reduce(np.kron, factors)
                    np.testing.assert_allclose(seq.events[0], want, atol=1e-12)


def test_compile_rejects_unresolvable_lines():
    system = presets.get_preset("homonuclear-2")
    with pytest.raises(CompileError) as err:
        dsl.compile(dsl.parse("sel 1 4 x 90"), system)
    assert "not a resolvable line" in str(err.value)
    with pytest.raises(CompileError):
        dsl.compile(dsl.parse("sel 3 7 x 90"), system)  # level 7 beyond two spins
    with pytest.raises(CompileError):
        dsl.compile(dsl.parse("hard 3 x 90"), system)


def test_pretty_and_compile_reject_foreign_statements():
    program = dsl.PulseProgram(statements=(dsl.parse("crush").statements[0], "sel 3 4 x 90"))
    with pytest.raises(InputError, match="unknown statement type str"):
        dsl.pretty(program)
    with pytest.raises(CompileError, match="statement 2: unknown statement type str"):
        dsl.compile(program, presets.get_preset("chloroform"))


def test_compile_block_simultaneity_matters():
    # one block is a single exponential; consecutive one-pulse statements
    # multiply two exponentials, a different operator for non-commuting lines
    system = presets.get_preset("homonuclear-2")
    together = dsl.compile(dsl.parse("block { sel 3 4 x 90 ; sel 4 2 x 90 }"), system)
    apart = dsl.compile(dsl.parse("sel 3 4 x 90\nsel 4 2 x 90"), system)
    combined = apart.events[1] @ apart.events[0]
    assert np.max(np.abs(together.events[0] - combined)) > 1e-2


def test_compile_is_deterministic():
    system = presets.get_preset("chloroform")
    a = dsl.compile(dsl.parse(PREP_PROGRAM), system)
    b = dsl.compile(dsl.parse(PREP_PROGRAM), system)
    for ea, eb in zip(a.events, b.events):
        if isinstance(ea, dsl.Crush):
            assert ea == eb
        else:
            assert np.array_equal(ea, eb)


# ---------------------------------------------------------------------------
# execution

def test_run_empty_sequence_is_identity():
    system = presets.get_preset("chloroform")
    rho = core.thermal_deviation(system)
    out = dsl.run(dsl.compile(dsl.parse(""), system), rho)
    np.testing.assert_allclose(out, rho)


def test_run_preparation_program_reaches_golden_diagonal():
    system = presets.get_preset("chloroform")
    seq = dsl.compile(dsl.parse(PREP_PROGRAM), system)
    rho = dsl.run(seq, core.thermal_deviation(system))
    np.testing.assert_allclose(
        np.real(np.diagonal(rho)), [6.9905, -2.3303, -2.3303, -2.3303], atol=1e-3
    )
    assert np.max(np.abs(rho - np.diag(np.diagonal(rho)))) == 0


def test_run_without_crush_leaves_coherences():
    system = presets.get_preset("chloroform")
    text = "block { sel 3 4 x 127.13 ; sel 2 4 x 186.01 }"
    rho = dsl.run(dsl.compile(dsl.parse(text), system), core.thermal_deviation(system))
    off = rho - np.diag(np.diagonal(rho))
    assert np.max(np.abs(off)) > 0.1
    # the two pulses share level 4, which builds a zero-quantum (2,3)
    # coherence that an order-based crusher keeps; only the idealized
    # all-off-diagonal mode yields the clean diagonal
    kept = core.crush(rho, "coherence_order")
    assert abs(kept[1, 2]) > 1e-3
    flat = core.crush(rho, "all_off_diagonal")
    assert np.max(np.abs(flat - np.diag(np.diagonal(flat)))) == 0


def test_run_concatenation_matches_sequential_runs():
    system = presets.get_preset("homonuclear-2")
    rng = np.random.default_rng(77)
    for _ in range(10):
        p1, p2 = random_program(rng), random_program(rng)
        joined = dsl.PulseProgram(p1.statements + p2.statements)
        rho0 = core.thermal_deviation(system)
        once = dsl.run(dsl.compile(joined, system), rho0)
        twice = dsl.run(
            dsl.compile(p2, system), dsl.run(dsl.compile(p1, system), rho0)
        )
        np.testing.assert_allclose(once, twice, atol=1e-12)


# the four single-flip lines of a two-spin register
LINES_2SPIN = ((1, 2), (3, 4), (1, 3), (2, 4))
angles = st.floats(-720.0, 720.0, allow_subnormal=False)


@st.composite
def blocks(draw):
    pairs = draw(st.lists(st.sampled_from(LINES_2SPIN), min_size=1, max_size=4, unique=True))
    pulses = []
    for m, k in pairs:
        if draw(st.booleans()):
            m, k = k, m
        pulses.append(dsl.SelPulse(m, k, draw(axes), draw(angles)))
    return dsl.Block(tuple(pulses))


statements = st.one_of(
    blocks(),
    st.builds(dsl.HardPulse, st.sampled_from((None, 1, 2)), axes, angles),
    st.builds(dsl.Crush, st.sampled_from(core.CRUSH_MODES)),
)


@st.composite
def traceless_hermitian_2spin(draw):
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    a = draw(arrays(float, (4, 4), elements=parts))
    b = draw(arrays(float, (4, 4), elements=parts))
    h = (a + 1j * b + (a + 1j * b).conj().T) / 2
    return h - np.trace(h) / 4 * np.eye(4)


@settings(max_examples=50, deadline=None)
@given(st.lists(statements, min_size=1, max_size=6), traceless_hermitian_2spin())
def test_run_preserves_hermiticity_and_trace(stmts, rho):
    system = presets.get_preset("homonuclear-2")
    out = dsl.run(dsl.compile(dsl.PulseProgram(tuple(stmts)), system), rho)
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12
    assert abs(np.trace(out) - np.trace(rho)) <= 1e-12


def test_run_dimension_check():
    system = presets.get_preset("chloroform")
    seq = dsl.compile(dsl.parse("crush"), system)
    with pytest.raises(InputError):
        dsl.run(seq, np.eye(8))
