import pytest

from crautomata import canonical


@pytest.fixture
def decodes(monkeypatch):
    """Every code that a walk's word decoder is asked for while the test runs."""
    asked = []
    make = canonical.word_decoder

    def spying_decoder(m):
        decode = make(m)

        def spy(code):
            asked.append(code)
            return decode(code)

        return spy

    monkeypatch.setattr(canonical, "word_decoder", spying_decoder)
    return asked
