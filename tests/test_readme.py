import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_is_what_the_library_returns():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library at a glance", 1)[1].split("```pycon\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    shown = [ex.want for ex in test.examples if ex.want]
    # the prefix, letter_at, group order, a_of_d row and verify_family verdicts
    assert len(shown) == 5
    assert doctest.DocTestRunner().run(test).failed == 0
