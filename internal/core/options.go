package core

type options struct {
	groups int
	key    GroupKey
}

// Option configures New.
type Option func(*options)

// WithGroups splits the fleet into exactly nGroups independent groups (§7,
// Fig. A6), overriding the automatic ceil(n/64) split. n must divide evenly
// into spans of at most 64.
func WithGroups(nGroups int) Option {
	return func(o *options) { o.groups = nGroups }
}

// WithGroupKey sets the level-1 dispatch key (GroupByTupleHash balances;
// GroupByLocalityHash keeps same-destination traffic in one group, Fig. A6).
// It has no effect on a single group.
func WithGroupKey(key GroupKey) Option {
	return func(o *options) { o.key = key }
}
