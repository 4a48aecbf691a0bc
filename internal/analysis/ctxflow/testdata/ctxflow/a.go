package fixture

import "context"

// Search is the no-ctx compatibility wrapper; minting a Background
// context here is the designed API boundary and stays legal.
func Search() error { return SearchContext(context.Background()) }

// SearchContext is the context-aware implementation.
func SearchContext(ctx context.Context) error {
	return ctx.Err()
}

func badBackground(ctx context.Context) error {
	return SearchContext(context.Background()) // want "context.Background inside badBackground"
}

func badTODO(ctx context.Context) error {
	return SearchContext(context.TODO()) // want "context.TODO inside badTODO"
}

func badSibling(ctx context.Context) error {
	return Search() // want "Search has a context-aware sibling SearchContext"
}

func good(ctx context.Context) error {
	return SearchContext(ctx)
}

// DB exercises the method path.
type DB struct{}

// Query is the no-ctx wrapper (no context parameter: exempt).
func (db *DB) Query() error { return db.QueryContext(context.Background()) }

// QueryContext is the context-aware method.
func (db *DB) QueryContext(ctx context.Context) error { return ctx.Err() }

func badMethod(ctx context.Context, db *DB) error {
	return db.Query() // want "Query has a context-aware sibling QueryContext"
}

func goodMethod(ctx context.Context, db *DB) error {
	return db.QueryContext(ctx)
}

// A "Deprecated:" marker buys no exemption: a function that receives a
// context must pass it on like any other.

// OldQueryContext retains a legacy name for old call sites.
//
// Deprecated: use DB.QueryContext.
func (db *DB) OldQueryContext(ctx context.Context) error {
	return db.Query() // want "Query has a context-aware sibling QueryContext"
}

// Detached keeps a legacy detach-from-caller behaviour.
//
// Deprecated: use SearchContext with the caller's context.
func Detached(ctx context.Context) error {
	return SearchContext(context.Background()) // want "context.Background inside Detached"
}

func suppressed(ctx context.Context) error {
	//lint:ignore ctxflow detached audit write must survive request cancellation
	return SearchContext(context.Background())
}
