package rules

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/temporal"
)

// ParseAll parses a sequence of rules from one source (e.g. a rule file).
func ParseAll(src string) ([]*Rule, error) {
	toks, err := lang.Lex(src)
	if err != nil {
		return nil, err
	}
	c := lang.NewCursor(toks)
	var out []*Rule
	for c.Peek().Kind != lang.TokEOF {
		r, err := parseRule(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("rules: no rules in input")
	}
	return out, nil
}

func parseRule(c *lang.Cursor) (*Rule, error) {
	if err := c.ExpectKeyword("rule"); err != nil {
		return nil, err
	}
	name, err := c.Expect(lang.TokIdent)
	if err != nil {
		return nil, err
	}
	r := &Rule{Name: name.Text}

	if err := c.ExpectKeyword("on"); err != nil {
		return nil, err
	}
	switch {
	case c.AcceptKeyword("seq"):
		r.Trigger, err = parsePatternTrigger(c, PatternSeq)
	case c.AcceptKeyword("all"):
		r.Trigger, err = parsePatternTrigger(c, PatternAll)
	case c.AcceptKeyword("any"):
		r.Trigger, err = parsePatternTrigger(c, PatternAny)
	default:
		r.Trigger, err = parseStreamTrigger(c)
	}
	if err != nil {
		return nil, err
	}

	if c.AcceptKeyword("where") {
		r.Where, err = lang.ParseExprFrom(c)
		if err != nil {
			return nil, err
		}
	}
	if c.AcceptKeyword("when") {
		r.When, err = lang.ParseExprFrom(c)
		if err != nil {
			return nil, err
		}
	}
	if err := c.ExpectKeyword("then"); err != nil {
		return nil, err
	}
	for {
		a, err := parseAction(c)
		if err != nil {
			return nil, err
		}
		r.Actions = append(r.Actions, a)
		if _, ok := c.Accept(lang.TokComma); !ok {
			break
		}
	}
	return r, nil
}

func parseStreamTrigger(c *lang.Cursor) (Trigger, error) {
	stream, err := c.Expect(lang.TokIdent)
	if err != nil {
		return nil, err
	}
	t := &StreamTrigger{Stream: stream.Text, Alias: stream.Text}
	if c.AcceptKeyword("as") {
		alias, err := c.Expect(lang.TokIdent)
		if err != nil {
			return nil, err
		}
		t.Alias = alias.Text
	}
	return t, nil
}

func parsePatternTrigger(c *lang.Cursor, kind PatternKind) (Trigger, error) {
	if _, err := c.Expect(lang.TokLParen); err != nil {
		return nil, err
	}
	t := &PatternTrigger{Kind: kind}
	for {
		var it PatternItem
		if c.AcceptKeyword("not") {
			if kind != PatternSeq {
				return nil, fmt.Errorf("rules: NOT items are only valid in SEQ patterns")
			}
			it.Negated = true
		}
		stream, err := c.Expect(lang.TokIdent)
		if err != nil {
			return nil, err
		}
		it.Stream = stream.Text
		it.Alias = stream.Text
		if c.AcceptKeyword("as") {
			alias, err := c.Expect(lang.TokIdent)
			if err != nil {
				return nil, err
			}
			it.Alias = alias.Text
		}
		t.Items = append(t.Items, it)
		if _, ok := c.Accept(lang.TokComma); !ok {
			break
		}
	}
	if _, err := c.Expect(lang.TokRParen); err != nil {
		return nil, err
	}
	if c.AcceptKeyword("within") {
		d, err := c.Expect(lang.TokDuration)
		if err != nil {
			return nil, err
		}
		t.Within = temporal.Instant(d.Int)
	}
	return t, nil
}

func parseAction(c *lang.Cursor) (Action, error) {
	switch {
	case c.AcceptKeyword("replace"):
		attr, entity, err := parseTarget(c)
		if err != nil {
			return nil, err
		}
		if _, err := c.Expect(lang.TokEq); err != nil {
			return nil, err
		}
		value, err := lang.ParseExprFrom(c)
		if err != nil {
			return nil, err
		}
		return &ReplaceAction{Attr: attr, Entity: entity, Value: value}, nil

	case c.AcceptKeyword("assert"):
		attr, entity, err := parseTarget(c)
		if err != nil {
			return nil, err
		}
		if _, err := c.Expect(lang.TokEq); err != nil {
			return nil, err
		}
		value, err := lang.ParseExprFrom(c)
		if err != nil {
			return nil, err
		}
		a := &AssertAction{Attr: attr, Entity: entity, Value: value}
		if c.AcceptKeyword("from") {
			a.From, err = lang.ParseExprFrom(c)
			if err != nil {
				return nil, err
			}
		}
		if c.AcceptKeyword("until") {
			a.Until, err = lang.ParseExprFrom(c)
			if err != nil {
				return nil, err
			}
		}
		return a, nil

	case c.AcceptKeyword("retract"):
		attr, entity, err := parseTarget(c)
		if err != nil {
			return nil, err
		}
		return &RetractAction{Attr: attr, Entity: entity}, nil

	case c.AcceptKeyword("emit"):
		stream, err := c.Expect(lang.TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := c.Expect(lang.TokLParen); err != nil {
			return nil, err
		}
		a := &EmitAction{Stream: stream.Text}
		for {
			name, err := c.Expect(lang.TokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := c.Expect(lang.TokEq); err != nil {
				return nil, err
			}
			e, err := lang.ParseExprFrom(c)
			if err != nil {
				return nil, err
			}
			a.Fields = append(a.Fields, EmitField{Name: name.Text, Expr: e})
			if _, ok := c.Accept(lang.TokComma); !ok {
				break
			}
		}
		if _, err := c.Expect(lang.TokRParen); err != nil {
			return nil, err
		}
		return a, nil
	}
	return nil, fmt.Errorf("rules: expected REPLACE, ASSERT, RETRACT, or EMIT, found %q", c.Peek().Text)
}

// parseTarget parses attr(entityExpr).
func parseTarget(c *lang.Cursor) (string, lang.Expr, error) {
	attr, err := c.Expect(lang.TokIdent)
	if err != nil {
		return "", nil, err
	}
	if _, err := c.Expect(lang.TokLParen); err != nil {
		return "", nil, err
	}
	entity, err := lang.ParseExprFrom(c)
	if err != nil {
		return "", nil, err
	}
	if _, err := c.Expect(lang.TokRParen); err != nil {
		return "", nil, err
	}
	return attr.Text, entity, nil
}
