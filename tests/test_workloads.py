"""Integration: every workload kernel, original vs transformed, on real
(zero-latency) substrate instances."""

import ast

import pytest

from repro import asyncify, INSTANT
from repro.analysis.applicability import analyze_functions
from repro.transform.errors import REASON_PRECONDITION, REASON_RECURSION
from repro.web.client import WebServiceClient
from repro.web.service import INSTANT_WEB
from repro.workloads import category, forms, moviegraph, rubbos, rubis


@pytest.fixture(scope="module")
def rubis_db():
    db = rubis.build_database(INSTANT, users=400, items=150, comments=200, bids=200)
    yield db
    db.close()


@pytest.fixture(scope="module")
def rubbos_db():
    db = rubbos.build_database(INSTANT, users=300, stories=200, comments=400)
    yield db
    db.close()


@pytest.fixture(scope="module")
def category_db():
    db = category.build_database(INSTANT, parts=4000)
    yield db
    db.close()


class TestRubisKernels:
    def check(self, db, kernel, *args):
        conn_a = db.connect(async_workers=6)
        conn_b = db.connect(async_workers=6)
        transformed = asyncify(kernel)
        import copy

        original_out = kernel(conn_a, *copy.deepcopy(args))
        transformed_out = transformed(conn_b, *copy.deepcopy(args))
        conn_a.close()
        conn_b.close()
        assert original_out == transformed_out
        assert transformed.__repro_report__[0].transformed

    def test_load_comment_authors(self, rubis_db):
        comments = rubis.comment_batch(rubis_db, 30)
        self.check(rubis_db, rubis.load_comment_authors, comments)

    def test_load_item_details(self, rubis_db):
        self.check(rubis_db, rubis.load_item_details, list(range(20)))

    def test_max_bids_for_items(self, rubis_db):
        self.check(rubis_db, rubis.max_bids_for_items, list(range(20)))

    def test_bid_activity(self, rubis_db):
        self.check(rubis_db, rubis.bid_activity, list(range(20)))

    def test_comment_counts_while(self, rubis_db):
        self.check(rubis_db, rubis.comment_counts_while, list(range(15)))

    @pytest.mark.parametrize("threshold", [0, 2500, 5000])  # prices are 1..5000
    def test_flag_risky_sellers(self, rubis_db, threshold):
        """Every price over the threshold, about half, none: the guarded
        chain of three queries is three overlapped stages."""
        self.check(rubis_db, rubis.flag_risky_sellers, list(range(30)), threshold)
        assert self.outcomes(rubis.flag_risky_sellers) == [("transformed", "")] * 3

    def test_must_fail_when_del_is_a_mutation(self, rubis_db, monkeypatch):
        """Mutation: the def/use collector records ``del v`` as a
        mutation again, so fission refuses to split the fetch loop whose
        restore it emitted itself."""
        from repro.ir import defuse

        visit_name = defuse._Collector.visit_Name

        def del_mutates(collector, node):
            visit_name(collector, node)
            if isinstance(node.ctx, ast.Del):
                collector.name_writes.discard(node.id)

        monkeypatch.setattr(defuse._Collector, "visit_Name", del_mutates)
        with pytest.raises(AssertionError):
            self.test_flag_risky_sellers(rubis_db, 2500)
        assert self.outcomes(rubis.flag_risky_sellers)[2] == (
            "blocked", REASON_PRECONDITION
        )

    @staticmethod
    def outcomes(kernel):
        (report,) = asyncify(kernel).__repro_report__
        return [(outcome.status, outcome.reason) for outcome in report.outcomes]

    def test_region_user_counts(self, rubis_db):
        self.check(rubis_db, rubis.region_user_counts, list(range(10)))

    def test_category_item_counts(self, rubis_db):
        self.check(rubis_db, rubis.category_item_counts, list(range(10)))

    def test_best_deal(self, rubis_db):
        self.check(rubis_db, rubis.best_deal, list(range(25)))


class TestRubbosKernels:
    def check(self, db, kernel, *args):
        import copy

        conn_a = db.connect(async_workers=6)
        conn_b = db.connect(async_workers=6)
        transformed = asyncify(kernel)
        assert kernel(conn_a, *copy.deepcopy(args)) == transformed(
            conn_b, *copy.deepcopy(args)
        )
        conn_a.close()
        conn_b.close()

    def test_top_stories(self, rubbos_db):
        stories = rubbos.story_batch(rubbos_db, 20)
        self.check(rubbos_db, rubbos.top_stories_of_day, stories)

    def test_story_comment_counts(self, rubbos_db):
        self.check(rubbos_db, rubbos.story_comment_counts, list(range(15)))

    def test_author_karma_sweep(self, rubbos_db):
        self.check(rubbos_db, rubbos.author_karma_sweep, list(range(15)))

    def test_moderation_queue(self, rubbos_db):
        self.check(rubbos_db, rubbos.moderation_queue, list(range(30)), 1)

    def test_prolific_authors(self, rubbos_db):
        self.check(rubbos_db, rubbos.prolific_authors, list(range(20)), 1)

    def test_comment_ratings(self, rubbos_db):
        self.check(rubbos_db, rubbos.comment_ratings, list(range(25)))

    def test_recursive_kernels_still_run_untransformed(self, rubbos_db):
        conn = rubbos_db.connect()
        thread = rubbos.expand_thread(conn, [1, 2], 1)
        assert 1 in thread and 2 in thread
        total = rubbos.count_subtree(conn, [1], 1)
        assert total >= 1
        conn.close()


class TestCategoryKernels:
    def test_max_part_size(self, category_db):
        children = category.load_children(category_db)
        roots = category.roots_for_iterations(11)
        conn = category_db.connect(async_workers=6)
        transformed = asyncify(category.max_part_size)
        assert category.max_part_size(conn, children, list(roots)) == transformed(
            conn, children, list(roots)
        )
        conn.close()

    def test_subtree_part_count(self, category_db):
        children = category.load_children(category_db)
        roots = category.roots_for_iterations(100)
        conn = category_db.connect(async_workers=6)
        transformed = asyncify(category.subtree_part_count)
        original = category.subtree_part_count(conn, children, list(roots))
        assert original == transformed(conn, children, list(roots))
        # every part under the roots counted exactly once
        conn.close()

    def test_querying_children_partial(self, category_db):
        conn = category_db.connect(async_workers=6)
        transformed = asyncify(category.max_part_size_querying_children)
        assert category.max_part_size_querying_children(
            conn, [0]
        ) == transformed(conn, [0])
        report = transformed.__repro_report__
        blocked = [
            o for r in report for o in r.outcomes if o.status == "blocked"
        ]
        assert blocked, "the children query must stay blocking"
        conn.close()

    def test_roots_for_iterations_sizes(self):
        assert len(category.roots_for_iterations(1)) == 1
        # 11-node subtree: one mid category root
        assert category.roots_for_iterations(11) == [1]
        # 100-node subtree: one top category root
        assert category.roots_for_iterations(100) == [0]

    def test_traversal_visits_expected_counts(self, category_db):
        children = category.load_children(category_db)
        conn = category_db.connect()
        for iterations in (1, 11, 100):
            roots = category.roots_for_iterations(iterations)
            _best, visited = category.max_part_size(conn, children, list(roots))
            assert visited == iterations
        conn.close()


class TestFormsKernel:
    def test_equivalent_final_state(self):
        issues = forms.issue_batch(200, range_size=23)
        db_a = forms.build_database(INSTANT)
        db_b = forms.build_database(INSTANT)
        conn_a = db_a.connect(async_workers=6)
        conn_b = db_b.connect(async_workers=6)
        transformed = asyncify(
            forms.expand_form_ranges, registry=forms.commuting_registry()
        )
        count_a = forms.expand_form_ranges(conn_a, list(issues))
        count_b = transformed(conn_b, list(issues))
        assert count_a == count_b == 200
        rows_a = sorted(r for _i, r in db_a.catalog.table("forms_master").heap.iter_rows())
        rows_b = sorted(r for _i, r in db_b.catalog.table("forms_master").heap.iter_rows())
        assert rows_a == rows_b
        for db, conn in ((db_a, conn_a), (db_b, conn_b)):
            conn.close()
            db.close()

    def test_blocked_without_commuting_declaration(self):
        transformed = asyncify(forms.expand_form_ranges)
        assert not any(report.transformed for report in transformed.__repro_report__)

    def test_issue_batch_covers_exactly(self):
        issues = forms.issue_batch(100, range_size=7)
        covered = sum(end - start + 1 for _a, start, end in issues)
        assert covered == 100
        # ranges are disjoint and contiguous from 0
        spans = sorted((start, end) for _a, start, end in issues)
        expected_start = 0
        for start, end in spans:
            assert start == expected_start
            expected_start = end + 1


class TestMoviegraphKernels:
    @pytest.fixture(scope="class")
    def service(self):
        svc = moviegraph.build_service(INSTANT_WEB, directors=4, actors_per_director=5)
        yield svc
        svc.shutdown()

    def test_collect_filmographies(self, service):
        client = WebServiceClient(service, async_workers=4)
        actors = moviegraph.director_actors(client, "dir0")
        transformed = asyncify(moviegraph.collect_filmographies)
        assert moviegraph.collect_filmographies(client, list(actors)) == transformed(
            client, list(actors)
        )
        client.close()

    def test_movie_years(self, service):
        client = WebServiceClient(service, async_workers=4)
        movies = [f"mov{i}" for i in range(10)]
        transformed = asyncify(moviegraph.movie_years)
        assert moviegraph.movie_years(client, list(movies)) == transformed(
            client, list(movies)
        )
        client.close()

    def test_actor_movie_listing(self, service):
        client = WebServiceClient(service, async_workers=4)
        transformed = asyncify(moviegraph.actor_movie_listing)
        assert moviegraph.actor_movie_listing(client, "dir2") == transformed(
            client, "dir2"
        )
        client.close()


class TestTableOne:
    def test_auction_applicability(self):
        report = analyze_functions(rubis.QUERY_LOOPS, "Auction")
        assert report.opportunities == 9
        assert report.transformed == 9
        assert report.applicability_percent == 100

    def test_bulletin_board_applicability(self):
        report = analyze_functions(rubbos.QUERY_LOOPS, "Bulletin Board")
        assert report.opportunities == 8
        assert report.transformed == 6
        assert report.applicability_percent == 75
        blocked = [row for row in report.rows if not row.transformed]
        assert all(REASON_RECURSION in row.reasons for row in blocked)
