"""An in-memory database of extended relations.

:class:`Database` is the catalog the query engine resolves relation
names against, and the convenient front door for interactive use::

    db = Database("tourist_bureau")
    db.add(table_ra())
    db.add(table_rb())

    # string front end
    result = db.query("SELECT rname FROM RA WHERE speciality IS {si}")

    # fluent front end -- same plans, same cache
    result = db.rel("RA").select(attr("speciality").is_({"si"})).collect()

Both front ends run through the database's default
:class:`repro.session.Session`.  The catalog keeps a monotonically
increasing :attr:`version` so sessions can invalidate their plan/result
caches whenever a relation is added, replaced or dropped.
"""

from __future__ import annotations

import difflib

from collections.abc import Iterator
from contextlib import contextmanager

from repro.errors import CatalogError
from repro.model.relation import ExtendedRelation


def _did_you_mean(name: str, known) -> str:
    """A ``did you mean`` suffix for near-miss relation names ('' if none)."""
    matches = difflib.get_close_matches(name, list(known), n=1, cutoff=0.6)
    return f" -- did you mean {matches[0]!r}?" if matches else ""


class Database:
    """A named catalog of extended relations."""

    def __init__(self, name: str = "db"):
        self._name = str(name)
        self._relations: dict[str, ExtendedRelation] = {}
        #: Names the attached store holds but this catalog has not read
        #: yet (lazy open): materialized on first access, disjoint from
        #: ``_relations`` by construction.
        self._pending: set[str] = set()
        self._version = 0
        self._changed: dict[str, int] = {}
        self._listeners: list = []
        self._session = None
        self._batch_depth = 0
        self._batch_names: list[str] = []
        self._backend = None

    # -- persistence --------------------------------------------------------

    @classmethod
    def open(cls, url) -> "Database":
        """Open the database a storage URL names, backend attached.

        *url* is a backend location (``json:...``, ``sqlite:...``,
        ``log:...``, or a bare path resolved per
        :mod:`repro.storage.backends`); an already-built
        :class:`~repro.storage.backends.StorageBackend` is accepted
        too.  The catalog version is seeded from the backend, so
        sessions never confuse results cached against an earlier
        incarnation of the store.

        Backends that support it (``lazy_catalog``, e.g. SQLite) open
        lazily: the catalog holds name stubs and each relation's rows
        are parsed on first access, so opening a large store to query
        one relation reads one relation.
        """
        from repro.storage.backends import open_database

        return open_database(url)

    @property
    def backend(self):
        """The attached storage backend (None for in-memory databases)."""
        return self._backend

    def attach(self, backend) -> None:
        """Bind *backend* as this database's persistence engine.

        ``persist()``/``reload()`` operate through it from now on.  The
        backend must be open; an attached backend is released by
        :meth:`close`.
        """
        self._backend = backend

    def persist(self, partitions: int | None = None) -> None:
        """Write the whole catalog through the attached backend.

        With *partitions* the tuples persist in their stable hash-shard
        layout (reloading re-partitions identically).  Raises
        :class:`CatalogError` when no backend is attached.
        """
        self._require_backend().save_database(self, partitions=partitions)
        self._publish_remote_shards()

    def _publish_remote_shards(self) -> None:
        """Register the persisted relations with a locality-aware executor.

        After a full persist the catalog is the ground truth, so a
        remote executor with shard-resident workers (``publish_relation``
        hook) learns every relation's current version; in-process
        executors have no such hook and this is a no-op.
        """
        from repro.exec.executors import get_executor

        publish = getattr(get_executor(), "publish_relation", None)
        if publish is None:
            return
        for relation in self:
            publish(relation)

    def reload(self) -> frozenset:
        """Re-read the attached store, refreshing changed relations.

        Returns the names whose content actually changed (replaced,
        added or dropped).  Only those bump the catalog version, so
        session caches over untouched relations survive; afterwards the
        catalog version is synced to the backend's, keeping this
        database's sessions consistent with any other writer of the
        same store.
        """
        backend = self._require_backend()
        fresh = backend.load_database()
        touched = []
        with self.batch():
            # Sorted: drop order reaches catalog listeners and the
            # returned name set's insertion order, and must not depend
            # on set iteration order.
            stale = (set(self._relations) | self._pending) - set(fresh.names())
            for name in sorted(stale):
                self.drop(name)
                touched.append(name)
            for relation in fresh:
                if relation.name in self._pending:
                    # Never materialized, so nothing can hold a stale
                    # view of it: install silently, exactly as first
                    # access would have.
                    self._pending.discard(relation.name)
                    self._relations[relation.name] = relation
                    continue
                current = self._relations.get(relation.name)
                if current is None or current != relation:
                    self._install(relation)
                    touched.append(relation.name)
        self._version = max(self._version, backend.catalog_version())
        return frozenset(touched)

    def close(self) -> None:
        """Release the attached backend (no-op when none is attached).

        A detached database must stay fully readable, so any lazy
        stubs materialize first, while the backend can still serve
        them (callers wanting to stay lazy keep the backend attached).
        """
        if self._backend is not None:
            for name in sorted(self._pending):
                self._materialize(name)
            self._backend.close()
            self._backend = None

    def _require_backend(self):
        if self._backend is None:
            raise CatalogError(
                f"database {self._name!r} has no attached storage backend "
                f"(open it via Database.open(url) or call attach())"
            )
        return self._backend

    @property
    def name(self) -> str:
        """The database name."""
        return self._name

    @property
    def version(self) -> int:
        """Catalog version; bumped by mutations that can change the
        meaning of an existing query (replacing or dropping a relation
        -- adding a brand-new name cannot alter any cached result).

        Sessions compare this against the version they last planned
        for and drop their caches on mismatch.
        """
        return self._version

    def add(self, relation: ExtendedRelation, replace: bool = False) -> None:
        """Register *relation* under its schema name.

        The schema name must be a non-empty identifier (it has to be
        addressable from the query language).  Raises
        :class:`CatalogError` on duplicates unless *replace*.
        """
        name = relation.name
        if not isinstance(name, str) or not name.isidentifier():
            raise CatalogError(
                f"relation name {name!r} is not a valid identifier; "
                f"rename it (e.g. relation.with_name('R')) before adding"
            )
        if name in self._relations and not replace:
            raise CatalogError(
                f"relation {name!r} already exists in database {self._name!r}"
            )
        self._install(relation)

    def _install(self, relation: ExtendedRelation) -> None:
        """Insert without name validation (deserialization trusts saved
        files, which may predate the identifier rule)."""
        name = relation.name
        if name in self._relations or name in self._pending:
            # A pending stub counts as existing: replacing it changes
            # the meaning of the name for anyone who resolved it.
            self._version += 1
            self._changed[name] = self._version
        self._pending.discard(name)
        self._relations[name] = relation
        self._notify(name)

    def changed_names_since(self, version: int) -> frozenset:
        """Names whose meaning changed after catalog *version*.

        A name "changes meaning" when it is replaced or dropped; adding
        a brand-new name does not (no existing query could have referred
        to it).  Sessions use this for targeted invalidation: only
        cached plans/results depending on one of these names are stale.
        """
        return frozenset(
            name
            for name, changed_at in self._changed.items()
            if changed_at > version
        )

    def add_listener(self, callback) -> None:
        """Call ``callback(names)`` after catalog mutations.

        *names* is a tuple of the mutated relation names -- a 1-tuple
        for a plain ``add``/``drop``, the distinct mutated names (in
        first-mutation order) for a bulk load inside :meth:`batch`.
        Listeners fire on adds as well as replaces/drops: a brand-new
        name never appears in :meth:`changed_names_since` (it cannot
        stale any cache), so the mutated names are passed explicitly --
        that is how a standing query learns its relation was first
        published.  Exceptions propagate to the mutator.
        """
        if callback not in self._listeners:
            self._listeners.append(callback)

    def remove_listener(self, callback) -> None:
        """Stop notifying *callback* (no-op when unregistered)."""
        if callback in self._listeners:
            self._listeners.remove(callback)

    @contextmanager
    def batch(self):
        """Coalesce listener notifications across a bulk mutation.

        Inside the context, mutations record their names instead of
        firing listeners; on exit, one notification carries all
        distinct mutated names.  Bulk loads (deserialization, partition
        reassembly, multi-relation publishes) use this so sessions run
        one invalidation/subscription sweep instead of one per
        relation.  Nested batches coalesce into the outermost one.

        >>> db = Database()
        >>> events = []
        >>> db.add_listener(events.append)
        >>> from repro.datasets.restaurants import table_ra, table_rb
        >>> with db.batch():
        ...     db.add(table_ra()); db.add(table_rb())
        >>> events
        [('RA', 'RB')]
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._batch_names:
                names = tuple(dict.fromkeys(self._batch_names))
                self._batch_names = []
                self._fire(names)

    def add_all(self, relations, replace: bool = False) -> None:
        """Register many relations under one batched notification."""
        with self.batch():
            for relation in relations:
                self.add(relation, replace=replace)

    def _notify(self, name: str) -> None:
        if self._batch_depth:
            self._batch_names.append(name)
            return
        self._fire((name,))

    def _fire(self, names: tuple[str, ...]) -> None:
        for callback in tuple(self._listeners):
            callback(names)

    def get(self, name: str) -> ExtendedRelation:
        """The relation registered under *name*.

        A lazily-opened catalog materializes the relation from the
        attached store on first access (no version bump, no listener
        notification -- nothing can hold a stale view of a relation
        that was never loaded).
        """
        try:
            return self._relations[name]
        except KeyError:
            if name in self._pending:
                return self._materialize(name)
            known_names = set(self._relations) | self._pending
            known = ", ".join(sorted(known_names)) or "(none)"
            raise CatalogError(
                f"no relation {name!r} in database {self._name!r} "
                f"(known: {known}){_did_you_mean(name, known_names)}"
            ) from None

    def _materialize(self, name: str) -> ExtendedRelation:
        """Load a pending stub's relation from the attached store."""
        relation = self._require_backend().load_relation(name)
        self._pending.discard(name)
        self._relations[name] = relation
        return relation

    def drop(self, name: str) -> None:
        """Remove the relation registered under *name*."""
        if name in self._pending:
            # Dropping an unmaterialized stub never reads its rows.
            self._pending.discard(name)
        elif name in self._relations:
            del self._relations[name]
        else:
            known_names = set(self._relations) | self._pending
            raise CatalogError(
                f"cannot drop unknown relation {name!r} from "
                f"{self._name!r}{_did_you_mean(name, known_names)}"
            )
        self._version += 1
        self._changed[name] = self._version
        self._notify(name)

    def names(self) -> tuple[str, ...]:
        """All registered relation names, sorted."""
        return tuple(sorted(set(self._relations) | self._pending))

    def relations(self) -> tuple[ExtendedRelation, ...]:
        """All registered relations, sorted by name (materializes any
        pending stubs)."""
        return tuple(self.get(name) for name in self.names())

    def __contains__(self, name: object) -> bool:
        return name in self._relations or name in self._pending

    def __iter__(self) -> Iterator[ExtendedRelation]:
        return iter(self.relations())

    def __len__(self) -> int:
        return len(self._relations) + len(self._pending)

    # -- the query engine ---------------------------------------------------

    def session(self):
        """The database's default :class:`repro.session.Session`.

        Created lazily and reused: ``db.query``, ``db.explain`` and
        ``db.rel`` all share its plan/result caches.  Build separate
        ``Session(db)`` instances for independently-cached workloads.
        """
        if self._session is None:
            from repro.session import Session

            self._session = Session(self)
        return self._session

    def rel(self, name: str):
        """A lazy fluent expression over the relation *name*.

        >>> from repro.datasets.restaurants import table_ra
        >>> db = Database(); db.add(table_ra())
        >>> db.rel("RA").project("rname", "rating").schema().names
        ('rname', 'rating')
        """
        return self.session().rel(name)

    def query(self, text: str) -> ExtendedRelation:
        """Parse, plan and execute a query against this database.

        Runs through the default session, so repeated queries hit its
        caches.  See :mod:`repro.query` for the language.
        """
        return self.session().execute(text)

    def explain(self, text: str) -> str:
        """The optimized logical plan of a query, rendered as text."""
        return self.session().explain(text)

    def __repr__(self) -> str:
        return f"Database({self._name!r}, {len(self)} relations)"
