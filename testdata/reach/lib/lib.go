// Package lib holds one declaration per rule of the reachability guard.
package lib

// Span.Contains is called by main.
type Span struct{ Lo, Hi int }

func (s Span) Contains(i int) bool { return s.Lo <= i && i < s.Hi }

// Store.Contains is called by nothing. Its name collides with the called
// Span.Contains, so a guard that matches selectors by name keeps it; the
// type-resolved guard reports it.
type Store struct{ keys map[string]bool }

func NewStore() *Store { return &Store{keys: map[string]bool{}} }

func (s *Store) Put(k string) { s.keys[k] = true }

func (s *Store) Contains(k string) bool { return s.keys[k] }

// node is sealed: Leaf.node is a marker no selector names, kept because
// node is live and Leaf implements it.
type node interface{ node() }

type Leaf struct{}

func (Leaf) node() {}

func Eval(n node) string { return "leaf" }

// Square.Area is reached only through a call on the Shape interface.
type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

func Total(s Shape) int { return s.Area() }

// main names Green alone; the group is one declaration and stays whole.
const (
	Red = iota
	Green
	Blue
)

// Stack.Append is called on the instantiation Stack[int].
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Append(v T) { s.items = append(s.items, v) }
