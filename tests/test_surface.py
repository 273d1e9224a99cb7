"""Every function, class and method of the program is reached from the
program or its benchmark.  A name that only the tests reach is surface kept
alive for the tests alone; this test names it instead."""

import ast
from pathlib import Path

from gradabs.acceptance import AcceptanceLab
from gradabs.observe import CSV_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gradabs").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def definitions(tree):
    """(qualified name, name) of each module-level function or class and of
    each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def references(tree):
    """The names a module uses: plain and attribute names and imported
    names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_no_name_is_reached_only_from_tests():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    used = {name for tree in trees.values() for name in references(tree)}
    unused = [f"{path.relative_to(ROOT)}:{qualname}"
              for path, tree in trees.items()
              for qualname, name in definitions(tree) if name not in used]
    assert unused == []


def test_law_criteria_hold_no_bound_of_their_own():
    # exponents, tolerances, windows and caps of the laws live in the law
    # table (exponents.predicted_laws and fit.verdict) alone: a law
    # criterion is a row of LAW_GATES, which _law_gate judges through the
    # lambdas of CRITERIA; none of them holds a number, and every gate is a
    # (run, column) pair that names a simulation of RUNS and a column of the
    # series
    tree = ast.parse((ROOT / "src" / "gradabs" / "acceptance.py").read_text())
    lab = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "AcceptanceLab")
    assigned = {target.id: item.value for item in lab.body if isinstance(item, ast.Assign)
                for target in item.targets if isinstance(target, ast.Name)}
    judge = [item for item in lab.body
             if isinstance(item, ast.FunctionDef) and item.name == "_law_gate"]
    lambdas = [node for node in ast.walk(assigned["CRITERIA"]) if isinstance(node, ast.Lambda)]
    assert len(judge) == 1 and len(lambdas) == 1
    literals = [node.value for body in [assigned["LAW_GATES"], *judge, *lambdas]
                for node in ast.walk(body)
                if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex)]
    assert literals == []
    assert set(AcceptanceLab.LAW_GATES) <= set(AcceptanceLab.CRITERIA)
    for row in AcceptanceLab.LAW_GATES.values():
        assert row and all(len(gate) == 2 for gate in row)
        assert all(run in AcceptanceLab.RUNS and column in CSV_COLUMNS for run, column in row)


def test_only_the_exponents_command_classifies_a_regime():
    # a run and a sweep cell are labelled by the row of the law table that
    # judges their series (exponents.law_row), which knows whether it
    # absorbed anything; classify_regime, of (p, q, N) alone, labels only the
    # exponent table
    tree = ast.parse((ROOT / "src" / "gradabs" / "cli.py").read_text())
    callers = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
               for call in ast.walk(node) if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "classify_regime"]
    assert callers == ["cmd_exponents"]


def advance_function():
    """The AST of solver._advance."""
    tree = ast.parse((ROOT / "src" / "gradabs" / "solver.py").read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_advance")


def test_advance_calls_only_the_window_and_the_step_of_its_stepper():
    # the SSPRK step and its combination live in _Stepper.step, so the time
    # loop reads no other attribute of its stepper and hands the stepper to
    # nothing else
    advance = advance_function()
    uses = [node for node in ast.walk(advance)
            if isinstance(node, ast.Name) and node.id == "stepper"]
    reads = [node.attr for node in ast.walk(advance) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "stepper"]
    assert len(reads) == len(uses) and set(reads) == {"active_window", "step"}


def test_advance_hands_each_clock_its_time_left():
    # the columns of a batch are runs of their own: a step hands every clock
    # the time it has left to its own target, with no branch that would hold
    # an arrived clock at dt = 0 until the others arrive
    calls = [node for node in ast.walk(advance_function()) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "step"]
    assert len(calls) == 1
    branches = [node.lineno for arg in calls[0].args for node in ast.walk(arg)
                if isinstance(node, ast.IfExp)]
    assert branches == []


LEDGERS = ("absorbed_cells", "outflow", "ledgers", "absorbed", "boundary_out")


def stepper_class():
    """The AST of the _Stepper class."""
    tree = ast.parse((ROOT / "src" / "gradabs" / "solver.py").read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "_Stepper")


def stepper_step():
    """The AST of _Stepper.step."""
    return next(item for item in stepper_class().body
                if isinstance(item, ast.FunctionDef) and item.name == "step")


def test_the_stepper_raises_nothing():
    # a stepper reports every failure of a clock in `failed`, the one
    # failure channel of each of its entry points, and never raises
    raises = [node.lineno for node in ast.walk(stepper_class()) if isinstance(node, ast.Raise)]
    assert raises == []


def test_step_window_runs_every_stage_of_a_failed_clock():
    # a clock that undershoots is recorded and runs its step out with its
    # floor check off, in every layout, so the stage kernel never returns
    # early
    window = next(item for item in stepper_class().body
                  if isinstance(item, ast.FunctionDef) and item.name == "step_window")
    returns = [node.lineno for node in ast.walk(window) if isinstance(node, ast.Return)]
    assert returns == []


def test_record_takes_every_row_in_one_body():
    # t0 is the record loop's first pass, so one observe call takes every
    # row, t0's included, behind the same checks
    tree = ast.parse((ROOT / "src" / "gradabs" / "solver.py").read_text())
    record = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_record")
    calls = [node.lineno for node in ast.walk(record) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "observe"
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "observe"]
    assert len(calls) == 1, calls


def test_only_the_layout_forks_read_the_layout():
    # the clock is the stepper's one unit of time in every layout: a step
    # takes one tau per clock and reads each ledger one way, so only the
    # constructor, the view binding and the CFL maxima read whether the
    # stepper is a batch
    readers = {item.name for item in stepper_class().body if isinstance(item, ast.FunctionDef)
               for node in ast.walk(item) if isinstance(node, ast.Attribute)
               and node.attr == "rows" and isinstance(node.value, ast.Name)
               and node.value.id == "self"}
    assert readers == {"__init__", "_bind", "stable_dt_from"}


def test_the_cfl_rule_reads_the_gradients_its_stepper_bound():
    # the only right gradients for a step's CFL bound are the ones its
    # stepper just bound, so the rule takes none
    rule = next(item for item in stepper_class().body
                if isinstance(item, ast.FunctionDef) and item.name == "stable_dt_from")
    args = rule.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["self"]
    assert args.vararg is None and args.kwarg is None


def test_step_books_no_ledger():
    # the stages add to the ledgers' running sums and _Stepper.ledgers alone
    # weights them, so the step names no ledger
    names = [node.attr for node in ast.walk(stepper_step()) if isinstance(node, ast.Attribute)]
    assert "step_window" in names and not set(names) & set(LEDGERS)


def test_step_runs_its_stages_in_one_step_window_call():
    # the stage loop lives in step_window, so the step holds no loop and
    # calls step_window once, outside any comprehension
    step = stepper_step()
    loops = [node for node in ast.walk(step) if isinstance(node, (ast.For, ast.While))]
    calls = [node for node in ast.walk(step) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "step_window"]
    looped = [call for node in ast.walk(step)
              if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
              for call in ast.walk(node) if call in calls]
    assert loops == [] and len(calls) == 1 and looped == []


def test_every_criterion_has_its_acceptance_test():
    # each key of AcceptanceLab.CRITERIA is checked by exactly one test of
    # tests/test_acceptance.py, so a criterion added to the table cannot be
    # left out of the battery's tests
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    tests = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]
    checked = [call.args[1].value for test in tests for call in ast.walk(test)
               if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_check"]
    assert len(checked) == len(tests) and checked == list(AcceptanceLab.CRITERIA)


FITS = ("fit_power", "fit_log_growth", "fit_composite")
LAW_BOUNDS = ("EXPONENT_TOL", "COMPOSITE_SLOPE_TOL", "PLATEAU_REL_TOL",
              "LIMIT_LEVEL", "AMPLITUDE_SLACK", "BOUNDED_SPAN_OCTAVES")


def test_only_verdict_judges_a_law():
    # a fit returns its exponent, r2 and window; whether a law passes is
    # decided by fit.verdict alone, so no other function of fit reads a
    # tolerance, level, slack or span of the laws
    tree = ast.parse((ROOT / "src" / "gradabs" / "fit.py").read_text())
    assigned = {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert set(LAW_BOUNDS) <= assigned
    functions = {node.name: node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(FITS) <= set(functions) and "verdict" in functions
    reads = [f"{name}: {node.id}" for name, body in functions.items() if name != "verdict"
             for node in ast.walk(body)
             if isinstance(node, ast.Name) and node.id in LAW_BOUNDS]
    assert reads == []
